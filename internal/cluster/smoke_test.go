package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestClusterSmoke exercises the real binaries end to end: it builds
// cmd/nsserve and cmd/nsrouter, starts two replicas and a router in
// front of them, drives 200 mixed characterize requests through the
// router, SIGTERMs one replica halfway, and requires every request to
// come back 200 — the router's drain-aware ejection and failover must
// absorb the kill. Gated behind NSBENCH_CLUSTER_SMOKE=1 because it
// builds binaries and binds real ports; CI runs it as a dedicated step
// and uploads the router log (NSBENCH_ROUTER_LOG) as an artifact.
func TestClusterSmoke(t *testing.T) {
	if os.Getenv("NSBENCH_CLUSTER_SMOKE") == "" {
		t.Skip("set NSBENCH_CLUSTER_SMOKE=1 to run the binary smoke test")
	}
	l := newLauncher(t, "nsserve", "nsrouter")
	addrA, addrB, addrR := freeAddr(t), freeAddr(t), freeAddr(t)

	logPath := os.Getenv("NSBENCH_ROUTER_LOG")
	if logPath == "" {
		logPath = filepath.Join(l.dir, "router.log")
	}
	routerLog, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer routerLog.Close()

	// -drain-grace keeps a SIGTERMed replica answering (with /readyz 503)
	// long enough for the router's 50ms probes to eject it cleanly.
	repA := l.start("nsserve", os.Stderr, "-addr", addrA, "-quiet", "-drain-grace", "1s")
	l.start("nsserve", os.Stderr, "-addr", addrB, "-quiet", "-drain-grace", "1s")
	l.start("nsrouter", routerLog,
		"-addr", addrR,
		"-replicas", fmt.Sprintf("http://%s,http://%s", addrA, addrB),
		"-probe-interval", "50ms", "-eject-after", "2", "-readmit-after", "2")

	awaitReady(t, "router", addrR)
	base := "http://" + addrR

	workloads := []string{"LNN", "LTN"}
	devices := []string{"RTX 2080 Ti", "Xavier NX", "Jetson TX2", "Xeon Silver 4114"}
	const total = 200
	for i := 0; i < total; i++ {
		body := fmt.Sprintf(`{"workload":%q,"device":%q}`,
			workloads[i%len(workloads)], devices[(i/len(workloads))%len(devices)])
		resp, err := http.Post(base+"/v1/characterize", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): %d, want 200 — failover must absorb the kill", i, body, resp.StatusCode)
		}

		switch i {
		case total/2 - 1:
			// Both replicas healthy and reporting before the kill.
			agg := smokeStats(t, base)
			if agg.LiveNodes != 2 || len(agg.Nodes) != 2 {
				t.Fatalf("pre-kill stats: live=%d nodes=%d, want 2/2", agg.LiveNodes, len(agg.Nodes))
			}
			for _, ns := range agg.Nodes {
				if ns.Err != "" {
					t.Fatalf("pre-kill stats: node %s errored: %s", ns.Node, ns.Err)
				}
			}
			if err := repA.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		case total / 2:
			// Give the router's probes one drain-grace window to eject the
			// dying replica; requests during the window still succeed.
			time.Sleep(300 * time.Millisecond)
		}
	}

	await(t, "post-kill stats to settle", func() bool {
		return smokeStats(t, base).LiveNodes == 1
	})
	agg := smokeStats(t, base)
	if len(agg.EjectedNodes) != 1 {
		t.Fatalf("post-kill stats: ejected=%v, want exactly the killed replica", agg.EjectedNodes)
	}
	if agg.Cluster.Requests == 0 {
		t.Fatal("post-kill stats: surviving replica reports no requests")
	}
}

func smokeStats(t *testing.T, base string) ClusterStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	return agg
}
