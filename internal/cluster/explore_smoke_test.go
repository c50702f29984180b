package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/neurosym/nsbench/internal/dse"
)

// TestExploreSmoke exercises the design-space-exploration path with real
// binaries end to end: it builds cmd/nsserve, cmd/nsrouter, cmd/nsexplore,
// and cmd/nsbench, starts two replicas behind a router, drives the stock
// 256-point NVSA sweep through the router with the nsexplore CLI, and
// requires full coverage (zero failed points), a non-empty Pareto front
// byte-identical to a single-replica sweep, and a trace-once/project-many
// re-projection speedup of at least 50x in the nsbench -explore artifact.
// Gated behind NSEXPLORE_SMOKE=1 because it builds binaries, binds real
// ports, and characterizes NVSA (~1s per replica); CI runs it as a
// dedicated step and uploads BENCH_explore.json (NSEXPLORE_ARTIFACT) as
// an artifact.
func TestExploreSmoke(t *testing.T) {
	if os.Getenv("NSEXPLORE_SMOKE") == "" {
		t.Skip("set NSEXPLORE_SMOKE=1 to run the explore binary smoke test")
	}
	l := newLauncher(t, "nsserve", "nsrouter", "nsexplore", "nsbench")
	addrA, addrB, addrR := freeAddr(t), freeAddr(t), freeAddr(t)

	l.start("nsserve", os.Stderr, "-addr", addrA, "-quiet")
	l.start("nsserve", os.Stderr, "-addr", addrB, "-quiet")
	l.start("nsrouter", os.Stderr,
		"-addr", addrR,
		"-replicas", fmt.Sprintf("http://%s,http://%s", addrA, addrB),
		"-probe-interval", "50ms")

	for name, addr := range map[string]string{"replica A": addrA, "replica B": addrB, "router": addrR} {
		awaitReady(t, name, addr)
	}

	sweep := func(server, out string) dse.Artifact {
		t.Helper()
		cmd := exec.Command(l.bin("nsexplore"), "-server", server, "-workload", "NVSA", "-out", out, "-quiet")
		if o, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("nsexplore against %s: %v\n%s", server, err, o)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var art dse.Artifact
		if err := json.Unmarshal(b, &art); err != nil {
			t.Fatalf("parsing %s: %v", out, err)
		}
		return art
	}
	single := sweep("http://"+addrA, filepath.Join(l.dir, "single.json"))
	routed := sweep("http://"+addrR, filepath.Join(l.dir, "routed.json"))

	for name, art := range map[string]dse.Artifact{"single": single, "routed": routed} {
		if art.GridSize < 200 {
			t.Fatalf("%s sweep grid has %d points, want >= 200", name, art.GridSize)
		}
		if art.Evaluated != art.GridSize || art.Failed != 0 {
			t.Fatalf("%s sweep evaluated %d/%d with %d failed, want full coverage",
				name, art.Evaluated, art.GridSize, art.Failed)
		}
		if art.FrontSize == 0 || len(art.Front) != art.FrontSize {
			t.Fatalf("%s sweep front empty or inconsistent: size %d, len %d",
				name, art.FrontSize, len(art.Front))
		}
	}
	singleFront, err := json.Marshal(single.Front)
	if err != nil {
		t.Fatal(err)
	}
	routedFront, err := json.Marshal(routed.Front)
	if err != nil {
		t.Fatal(err)
	}
	if string(singleFront) != string(routedFront) {
		t.Fatalf("routed front is not byte-identical to the single-replica front:\nsingle: %s\nrouted: %s",
			singleFront, routedFront)
	}

	// Trace-once/project-many payoff, measured by the nsbench smoke: the
	// artifact records how much faster re-projecting a point over the
	// cached trace is than re-characterizing per point (floor: 50x).
	artPath := os.Getenv("NSEXPLORE_ARTIFACT")
	if artPath == "" {
		artPath = filepath.Join(l.dir, "BENCH_explore.json")
	}
	cmd := exec.Command(l.bin("nsbench"), "-explore", artPath)
	cmd.Dir = "../.."
	if o, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("nsbench -explore: %v\n%s", err, o)
	}
	b, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench dse.Artifact
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Evaluated != bench.GridSize || bench.Failed != 0 {
		t.Fatalf("nsbench sweep evaluated %d/%d with %d failed", bench.Evaluated, bench.GridSize, bench.Failed)
	}
	if bench.ReprojectionSpeedup < 50 {
		t.Fatalf("re-projection speedup %.1fx below the 50x acceptance floor", bench.ReprojectionSpeedup)
	}
	t.Logf("explore smoke: %d points routed across 2 replicas, front size %d, re-projection speedup %.0fx",
		routed.Evaluated, routed.FrontSize, bench.ReprojectionSpeedup)
}
