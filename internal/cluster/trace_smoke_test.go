package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/trace"
)

// TestTraceSmoke exercises stitched tracing through the real binaries:
// it builds cmd/nsserve and cmd/nsrouter, starts a router over two live
// replicas plus one dead replica URL (kept in the ring by an effectively
// disabled health checker, so roughly a third of the keyspace is forced
// through the retry path), drives mixed traffic with explicit request
// IDs, and then pulls one retried request's stitched trace back through
// the router. The trace must pass trace.ValidateChrome and span at least
// two distinct pids — the router process and the serving replica. The
// raw trace is written to NSTRACE_ARTIFACT (when set) for upload.
// Gated behind NSTRACE_SMOKE=1: it builds binaries and binds real ports.
func TestTraceSmoke(t *testing.T) {
	if os.Getenv("NSTRACE_SMOKE") == "" {
		t.Skip("set NSTRACE_SMOKE=1 to run the stitched-trace smoke test")
	}
	workloads := []string{"LNN", "LTN"}
	devices := []string{"RTX 2080 Ti", "Xavier NX", "Jetson TX2", "Xeon Silver 4114"}
	l := newLauncher(t, "nsserve", "nsrouter")
	addrA, addrB, addrR := freeAddr(t), freeAddr(t), freeAddr(t)
	// Never started: every attempt is a transport error. Its port is
	// chosen so that it owns at least one workload×device key the traffic
	// sends; a port owning none would force no retry at all.
	addrDead := deadOwnerAddr(t, []string{addrA, addrB}, workloads, devices)

	l.start("nsserve", os.Stderr, "-addr", addrA, "-quiet", "-node-name", "replica-a")
	l.start("nsserve", os.Stderr, "-addr", addrB, "-quiet", "-node-name", "replica-b")
	// The dead node must stay in the ring for the whole run: a one-hour
	// probe interval means the health checker never gets to eject it.
	l.start("nsrouter", os.Stderr,
		"-addr", addrR,
		"-replicas", fmt.Sprintf("http://%s,http://%s,http://%s", addrA, addrB, addrDead),
		"-node-name", "nsrouter-smoke",
		"-probe-interval", "1h", "-quiet")

	awaitReady(t, "router", addrR)
	base := "http://" + addrR

	// Mixed traffic with explicit request IDs. Keys owned by the dead
	// node fail their first attempt at the transport and retry onto a
	// live replica — every request must still answer 200.
	const total = 60
	for i := 0; i < total; i++ {
		body := fmt.Sprintf(`{"workload":%q,"device":%q}`,
			workloads[i%len(workloads)], devices[(i/len(workloads))%len(devices)])
		req, err := http.NewRequest(http.MethodPost, base+"/v1/characterize", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", fmt.Sprintf("smoke-%03d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): %d, want 200 — retries must absorb the dead node", i, body, resp.StatusCode)
		}
	}

	// The dead node forced at least one retry.
	metricsResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	retried := false
	for _, line := range strings.Split(string(metricsBody), "\n") {
		if strings.HasPrefix(line, "nsrouter_retries_total") && !strings.HasSuffix(line, " 0") {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("nsrouter_retries_total is zero — the dead replica forced no retries:\n%s", metricsBody)
	}

	// Pull the most recent request's stitched trace: recent IDs are still
	// in every flight recorder's ring.
	id := fmt.Sprintf("smoke-%03d", total-1)
	var traceBytes []byte
	await(t, "stitched trace for "+id, func() bool {
		resp, err := http.Get(base + "/v1/trace?request_id=" + id)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			return false
		}
		traceBytes, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false
		}
		// Both processes present? The replica's root span can trail the
		// response by a scheduler beat.
		return countTracePids(t, traceBytes) >= 2
	})

	if artifact := os.Getenv("NSTRACE_ARTIFACT"); artifact != "" {
		if err := os.WriteFile(artifact, traceBytes, 0o644); err != nil {
			t.Fatalf("writing trace artifact: %v", err)
		}
	}

	stats, err := trace.ValidateChrome(traceBytes)
	if err != nil {
		t.Fatalf("stitched trace invalid: %v\n%s", err, traceBytes)
	}
	if stats.Events == 0 {
		t.Fatal("stitched trace has no events")
	}
	if pids := countTracePids(t, traceBytes); pids < 2 {
		t.Fatalf("stitched trace spans %d pids, want >= 2 (router + replica)", pids)
	}
}

// deadOwnerAddr returns a free loopback address that, joining live on a
// default router ring (nodes are "http://" + addr), is the primary owner
// of at least one workload×device request key.
func deadOwnerAddr(t *testing.T, live, workloads, devices []string) string {
	t.Helper()
	for try := 0; try < 64; try++ {
		addr := freeAddr(t)
		ring := NewRing(0)
		for _, a := range append(live[:len(live):len(live)], addr) {
			ring.Add("http://" + a)
		}
		for _, w := range workloads {
			for _, d := range devices {
				_, key, err := serve.Canonicalize(serve.Request{Workload: w, Device: d})
				if err != nil {
					t.Fatal(err)
				}
				if owner, _ := ring.Get(key); owner == "http://"+addr {
					return addr
				}
			}
		}
	}
	t.Fatal("no free port made the dead replica own any request key")
	return ""
}

// countTracePids counts distinct pids among non-metadata trace events.
func countTracePids(t *testing.T, raw []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			pids[ev.PID] = true
		}
	}
	return len(pids)
}
