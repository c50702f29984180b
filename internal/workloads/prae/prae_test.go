package prae

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestSolveCorrectness(t *testing.T) {
	w := New(Config{ImgSize: 16, Noise: 0.005, Seed: 11})
	if acc := w.SolveAccuracy(20); acc < 0.9 {
		t.Fatalf("PrAE accuracy = %v, want >= 0.9", acc)
	}
}

func TestPhasesAndStages(t *testing.T) {
	w := New(Config{ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	if tr.PhaseDuration(trace.Neural) == 0 || tr.PhaseDuration(trace.Symbolic) == 0 {
		t.Fatal("both phases must record time")
	}
	stages := map[string]bool{}
	for _, s := range tr.ByStage() {
		stages[s.Stage] = true
	}
	for _, want := range []string{"scene_inference", "abduce:number", "execute:color", "select"} {
		if !stages[want] {
			t.Fatalf("stage %q missing; have %v", want, stages)
		}
	}
}

func TestSceneInferenceSparsity(t *testing.T) {
	w := New(Config{ImgSize: 16, Noise: 0.01})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Trace().ByStage() {
		if s.Stage == "scene_inference" {
			// The exhaustive joint scene tensors are extremely sparse
			// (paper: > 95%); with noise-floor thresholding ours must be too.
			if s.Sparsity < 0.9 {
				t.Fatalf("scene sparsity = %v, want > 0.9", s.Sparsity)
			}
			return
		}
	}
	t.Fatal("scene_inference stage missing")
}

func TestSymbolicMemoryDominates(t *testing.T) {
	// PrAE's symbolic phase must allocate more than its neural phase
	// (Fig. 3b observation), driven by the exhaustive joint tensors.
	w := New(Config{ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	stats := e.Trace().StatsByPhase()
	if stats[trace.Symbolic].Alloc < stats[trace.Neural].Alloc/4 {
		t.Fatalf("symbolic alloc %d too small vs neural %d",
			stats[trace.Symbolic].Alloc, stats[trace.Neural].Alloc)
	}
}

func TestNameCategory(t *testing.T) {
	w := New(Config{})
	if w.Name() != "PrAE" || w.Category() != "Neuro|Symbolic" {
		t.Fatal("identity wrong")
	}
}

func TestCrossPhaseDependency(t *testing.T) {
	w := New(Config{ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	g := trace.BuildGraph(e.Trace())
	if n2s, _ := g.CrossPhaseEdges(); n2s == 0 {
		t.Fatal("symbolic phase must consume neural outputs")
	}
}

// TestRunAllocationBound guards the pooled joint-scene expansion: one
// default Run allocated 131 MiB when every Joint built index vectors and
// fresh expanded operands. GC is off for the run so the scratch pool is
// never emptied mid-run and its reuse is deterministic; two collections
// first empty it, so earlier tests cannot lend the run their buffers.
// It then guards the run-scoped tensor lifetimes: once a pool engine's
// run recycled its outputs, the next Run on the pool reuses them.
func TestRunAllocationBound(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 48 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("PrAE Run allocated %.1f MiB", float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("PrAE Run allocated %d bytes (%.1f MiB), want <= %d (48 MiB)", got, float64(got)/(1<<20), limit)
	}

	pool := ops.Config{}.NewPool()
	defer pool.Close()
	warm := pool.Engine()
	if err := w.Run(warm); err != nil {
		t.Fatal(err)
	}
	warm.Recycle()
	runtime.ReadMemStats(&before)
	if err := w.Run(pool.Engine()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const warmLimit = 8 << 20
	got = after.TotalAlloc - before.TotalAlloc
	t.Logf("PrAE warm Run allocated %.2f MiB", float64(got)/(1<<20))
	if got > warmLimit && !raceEnabled {
		t.Fatalf("PrAE warm Run allocated %d bytes (%.1f MiB), want <= %d (8 MiB)", got, float64(got)/(1<<20), warmLimit)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
