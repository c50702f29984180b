package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/trace"
)

// The binary-level tests (TestBinarySmoke, TestChaosSoak) run the real
// cmd/ binaries as processes on loopback ports, so flag wiring and
// cross-process behaviour stay covered. They are gated behind
// NSBENCH_BINARY_TESTS=1. NSBENCH_ARTIFACTS names a directory (absolute,
// created if missing) that receives router.log, stitched-trace.json,
// BENCH_explore.json and chaos-events.jsonl; unset, each test writes
// into its own temporary directory:
//
//	NSBENCH_BINARY_TESTS=1 NSBENCH_ARTIFACTS=$PWD/artifacts \
//	    go test -count=1 -run 'TestBinarySmoke|TestChaosSoak' -v -timeout 10m ./internal/chaos
const (
	gateEnv      = "NSBENCH_BINARY_TESTS"
	artifactsEnv = "NSBENCH_ARTIFACTS"
	// soakDuration is TestChaosSoak's traffic window.
	soakDuration = "45s"
	// moduleRoot is the module root relative to this package's directory,
	// where the tests run.
	moduleRoot = "../.."
)

// built holds the binaries, built once per test process by newLauncher
// and removed by TestMain.
var built struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// launcher starts built binaries for one test and names its artifacts.
type launcher struct {
	t         *testing.T
	artifacts string
}

// newLauncher skips the test unless the gate is set, and otherwise
// builds every command the binary-level tests run with one go build.
func newLauncher(t *testing.T) *launcher {
	t.Helper()
	if os.Getenv(gateEnv) == "" {
		t.Skipf("set %s=1 to run the binary-level tests", gateEnv)
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "nsbench-bin-"); built.err != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", built.dir,
			"./cmd/nsserve", "./cmd/nsrouter", "./cmd/nsexplore", "./cmd/nsbench", "./cmd/nschaos")
		cmd.Dir = moduleRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			built.err = fmt.Errorf("building cmd/: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	dir := os.Getenv(artifactsEnv)
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &launcher{t: t, artifacts: dir}
}

// bin returns the path of a built command.
func (l *launcher) bin(name string) string { return filepath.Join(built.dir, name) }

// artifact returns the path of a named artifact.
func (l *launcher) artifact(name string) string { return filepath.Join(l.artifacts, name) }

// start runs a built command with args, its stderr to stderr, and kills
// it when the test ends.
func (l *launcher) start(name string, stderr io.Writer, args ...string) *exec.Cmd {
	l.t.Helper()
	cmd := exec.Command(l.bin(name), args...)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		l.t.Fatalf("starting %s: %v", name, err)
	}
	l.t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// run runs a built command to completion from the module root and fails
// the test if it exits non-zero.
func (l *launcher) run(name string, args ...string) []byte {
	l.t.Helper()
	cmd := exec.Command(l.bin(name), args...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		l.t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return out
}

// TestBinarySmoke is the one binary-level run of the serving tier: two
// nsserve replicas behind an nsrouter, all started through their flags.
// It requires
//
//   - nsexplore's stock NVSA sweep (grid >= 200) to reach full coverage
//     against one replica and against the router, with a non-empty Pareto
//     front byte-identical between the two;
//   - nsbench -explore to record a re-projection speedup of at least 50x;
//   - one request's stitched trace, pulled through the router, to pass
//     trace.ValidateChrome and span at least two pids;
//   - 200 mixed characterize requests with explicit X-Request-IDs to
//     answer 200 while one replica is SIGTERMed halfway, with 2/2 healthy
//     nodes in /v1/stats before the kill and 1 live, 1 ejected after.
//
// Retries and stitching behind a failing node are covered in-process by
// cluster.TestClusterStitchedTraceEndToEnd.
func TestBinarySmoke(t *testing.T) {
	l := newLauncher(t)
	addrA, addrB, addrR := freeAddr(t), freeAddr(t), freeAddr(t)
	routerLog, err := os.Create(l.artifact("router.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer routerLog.Close()

	// -drain-grace keeps a SIGTERMed replica answering (with /readyz 503)
	// long enough for the router's 50ms probes to eject it cleanly.
	repA := l.start("nsserve", os.Stderr, "-addr", addrA, "-quiet", "-node-name", "replica-a", "-drain-grace", "1s")
	l.start("nsserve", os.Stderr, "-addr", addrB, "-quiet", "-node-name", "replica-b", "-drain-grace", "1s")
	l.start("nsrouter", routerLog,
		"-addr", addrR,
		"-replicas", fmt.Sprintf("http://%s,http://%s", addrA, addrB),
		"-node-name", "nsrouter-smoke",
		"-probe-interval", "50ms", "-eject-after", "2", "-readmit-after", "2")
	for name, addr := range map[string]string{"replica A": addrA, "replica B": addrB, "router": addrR} {
		awaitReady(t, name, addr)
	}
	base := "http://" + addrR

	smokeExplore(t, l, "http://"+addrA, base)

	workloads := []string{"LNN", "LTN"}
	devices := []string{"RTX 2080 Ti", "Xavier NX", "Jetson TX2", "Xeon Silver 4114"}
	const total = 200
	for i := 0; i < total; i++ {
		body := fmt.Sprintf(`{"workload":%q,"device":%q}`,
			workloads[i%len(workloads)], devices[(i/len(workloads))%len(devices)])
		req, err := http.NewRequest(http.MethodPost, base+"/v1/characterize", strings.NewReader(body))
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
			t.Fatalf("request %d (%s): %d, want 200 — failover must absorb the kill", i, body, resp.StatusCode)
		}

		switch i {
		case total/2 - 1:
			// The newest request is still in every flight recorder's ring.
			smokeTrace(t, l, base, fmt.Sprintf("smoke-%03d", i))
			// Both replicas healthy and reporting before the kill.
			agg := clusterStats(t, base)
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
		return clusterStats(t, base).LiveNodes == 1
	})
	agg := clusterStats(t, base)
	if len(agg.EjectedNodes) != 1 {
		t.Fatalf("post-kill stats: ejected=%v, want exactly the killed replica", agg.EjectedNodes)
	}
	if agg.Cluster.Requests == 0 {
		t.Fatal("post-kill stats: surviving replica reports no requests")
	}
}

// smokeExplore drives nsexplore's stock NVSA sweep against one replica
// and against the router and compares the fronts, then checks the
// nsbench -explore artifact's re-projection speedup.
func smokeExplore(t *testing.T, l *launcher, single, routed string) {
	t.Helper()
	sweep := func(server, out string) dse.Artifact {
		t.Helper()
		l.run("nsexplore", "-server", server, "-workload", "NVSA", "-out", out, "-quiet")
		art := readArtifact(t, out)
		if art.GridSize < 200 {
			t.Fatalf("sweep via %s: grid has %d points, want >= 200", server, art.GridSize)
		}
		if art.Evaluated != art.GridSize || art.Failed != 0 {
			t.Fatalf("sweep via %s: evaluated %d/%d with %d failed, want full coverage",
				server, art.Evaluated, art.GridSize, art.Failed)
		}
		if art.FrontSize == 0 || len(art.Front) != art.FrontSize {
			t.Fatalf("sweep via %s: front empty or inconsistent: size %d, len %d",
				server, art.FrontSize, len(art.Front))
		}
		return art
	}
	dir := t.TempDir()
	one := sweep(single, filepath.Join(dir, "single.json"))
	all := sweep(routed, filepath.Join(dir, "routed.json"))
	oneFront, err := json.Marshal(one.Front)
	if err != nil {
		t.Fatal(err)
	}
	allFront, err := json.Marshal(all.Front)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneFront, allFront) {
		t.Fatalf("routed front is not byte-identical to the single-replica front:\nsingle: %s\nrouted: %s",
			oneFront, allFront)
	}

	// Trace-once/project-many payoff: re-projecting a point over the
	// cached trace against re-characterizing per point (floor: 50x).
	path := l.artifact("BENCH_explore.json")
	l.run("nsbench", "-explore", path)
	bench := readArtifact(t, path)
	if bench.Evaluated != bench.GridSize || bench.Failed != 0 {
		t.Fatalf("nsbench sweep evaluated %d/%d with %d failed", bench.Evaluated, bench.GridSize, bench.Failed)
	}
	if bench.ReprojectionSpeedup < 50 {
		t.Fatalf("re-projection speedup %.1fx below the 50x acceptance floor", bench.ReprojectionSpeedup)
	}
	t.Logf("explore: %d points routed across 2 replicas, front size %d, re-projection speedup %.0fx",
		all.Evaluated, all.FrontSize, bench.ReprojectionSpeedup)
}

func readArtifact(t *testing.T, path string) dse.Artifact {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art dse.Artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return art
}

// smokeTrace pulls request id's stitched trace through the router into
// the stitched-trace.json artifact and validates it.
func smokeTrace(t *testing.T, l *launcher, base, id string) {
	t.Helper()
	var raw []byte
	// The replica's root span can trail the response by a scheduler beat.
	await(t, "stitched trace for "+id, func() bool {
		resp, err := http.Get(base + "/v1/trace?request_id=" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		raw, err = io.ReadAll(resp.Body)
		return err == nil && tracePids(raw) >= 2
	})
	if err := os.WriteFile(l.artifact("stitched-trace.json"), raw, 0o644); err != nil {
		t.Fatalf("writing trace artifact: %v", err)
	}
	stats, err := trace.ValidateChrome(raw)
	if err != nil {
		t.Fatalf("stitched trace invalid: %v\n%s", err, raw)
	}
	if stats.Events == 0 {
		t.Fatal("stitched trace has no events")
	}
}

// tracePids counts distinct pids among a Chrome trace's non-metadata
// events: one per process in a stitched trace.
func tracePids(raw []byte) int {
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

func clusterStats(t *testing.T, base string) cluster.ClusterStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestChaosSoak runs cmd/nschaos's seeded soak for soakDuration — 3
// replicas, replication 2, 2 hard kills with restarts, 1 extra runtime
// join, latency and drop fault windows — against the paper's LNN/LTN
// workloads, requiring every invariant to hold (zero failed requests,
// byte-stable deterministic report fields across generations, SLO
// budgets intact, stitched traces valid) and the chaos-events.jsonl
// artifact to carry the full schedule.
func TestChaosSoak(t *testing.T) {
	l := newLauncher(t)
	events := l.artifact("chaos-events.jsonl")
	cmd := exec.Command(l.bin("nschaos"),
		"-duration", soakDuration,
		"-replicas", "3",
		"-replication", "2",
		"-kills", "2",
		"-joins", "1",
		"-seed", "7",
		"-clients", "3",
		"-events", events,
	)
	out, err := cmd.CombinedOutput()
	t.Logf("nschaos output:\n%s", out)
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if !strings.Contains(string(out), "invariants: ok") {
		t.Fatalf("soak exited 0 without an invariants verdict")
	}

	// The event log must carry the full schedule: both kills, both
	// restarts, the scheduled join, and the fault windows.
	f, err := os.Open(events)
	if err != nil {
		t.Fatalf("event log artifact missing: %v", err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Bytes(), err)
		}
		kinds[ev.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds[EventKill] != 2 || kinds[EventRestart] != 2 {
		t.Fatalf("event log kills/restarts = %d/%d, want 2/2 (%v)", kinds[EventKill], kinds[EventRestart], kinds)
	}
	// 3 initial + 2 restarts + 1 scheduled runtime join.
	if kinds[EventJoin] != 6 {
		t.Fatalf("event log joins = %d, want 6 (%v)", kinds[EventJoin], kinds)
	}
	if kinds[EventFaultOn] == 0 || kinds[EventFaultOff] == 0 {
		t.Fatalf("event log has no fault windows: %v", kinds)
	}
	if kinds[EventViolation] != 0 {
		t.Fatalf("event log records %d violations", kinds[EventViolation])
	}
}

// freeAddr returns a loopback host:port that was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// awaitReady waits until addr's /readyz answers 200.
func awaitReady(t *testing.T, name, addr string) {
	t.Helper()
	await(t, name+" ready", func() bool {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// await polls cond until it holds, failing the test after 10s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
