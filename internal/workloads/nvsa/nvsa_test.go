package nvsa

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestSolveCorrectness(t *testing.T) {
	w := New(Config{Dim: 256, ImgSize: 16, Noise: 0.005, Seed: 7})
	acc := w.SolveAccuracy(20)
	if acc < 0.9 {
		t.Fatalf("NVSA accuracy = %v, want >= 0.9 at low noise", acc)
	}
}

func TestRunProducesBothPhases(t *testing.T) {
	w := New(Config{}) // default configuration, the one the figures use
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	if tr.PhaseDuration(trace.Neural) == 0 || tr.PhaseDuration(trace.Symbolic) == 0 {
		t.Fatal("both phases must record time")
	}
	// Symbolic dominance (the paper's 92.1% observation) is gated on the
	// projection in TestProjectedSymbolicShare; the host share moves with
	// CPU contention, so it is only reported.
	t.Logf("host symbolic share = %.3f", tr.PhaseShare(trace.Symbolic))
}

// TestProjectedSymbolicShare is the deterministic sibling of
// TestRunProducesBothPhases: the default run projected onto the Jetson TX2
// model, whose times depend only on the recorded shapes and costs, must
// still be dominated by the symbolic phase.
func TestProjectedSymbolicShare(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	if share := hwsim.JetsonTX2.ProjectTrace(e.Trace()).PhaseShare(trace.Symbolic); share <= 0.5 {
		t.Fatalf("TX2-projected symbolic share = %v, want > 0.5", share)
	}
}

func TestStagesPresent(t *testing.T) {
	w := New(Config{Dim: 128, ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, s := range e.Trace().ByStage() {
		stages[s.Stage] = true
	}
	for _, want := range []string{"pmf_to_vsa:number", "prob:color", "execute:type", "vsa_to_pmf"} {
		if !stages[want] {
			t.Fatalf("stage %q missing; have %v", want, stages)
		}
	}
}

func TestSymbolicSparsityHigh(t *testing.T) {
	w := New(Config{Dim: 128, ImgSize: 16, Noise: 0.01})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	// The PMF-to-VSA joint expansions must exhibit the Fig. 5 sparsity.
	for _, s := range e.Trace().ByStage() {
		if strings.HasPrefix(s.Stage, "pmf_to_vsa:") && s.Stage != "pmf_to_vsa:number" {
			if s.Sparsity < 0.8 {
				t.Fatalf("stage %s sparsity = %v, want high", s.Stage, s.Sparsity)
			}
		}
	}
}

func TestCodebookRegistered(t *testing.T) {
	w := New(Config{Dim: 128, ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	kinds := e.Trace().ParamBytesByKind()
	if kinds["codebook"] == 0 || kinds["weight"] == 0 {
		t.Fatalf("params missing: %v", kinds)
	}
}

func TestDataMovementRecorded(t *testing.T) {
	w := New(Config{Dim: 128, ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	br := e.Trace().CategoryBreakdown(trace.Neural)
	if br[trace.DataMovement] == 0 {
		t.Fatal("host↔device transfers missing from the neural phase")
	}
	if br[trace.Convolution] == 0 || br[trace.MatMul] == 0 {
		t.Fatal("neural phase must contain conv and matmul")
	}
}

func TestNameAndCategory(t *testing.T) {
	w := New(Config{})
	if w.Name() != "NVSA" || w.Category() != "Neuro|Symbolic" {
		t.Fatal("identity wrong")
	}
}

func TestSolve2x2(t *testing.T) {
	w := New(Config{M: 2, Dim: 128, ImgSize: 16, Noise: 0.005, Seed: 3})
	e := ops.New()
	task := raven.Generate(raven.Config{M: 2, NumChoices: 4}, w.g)
	got, err := w.Solve(e, task)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got >= 4 {
		t.Fatalf("choice index out of range: %d", got)
	}
}

func TestCrossPhaseDependency(t *testing.T) {
	w := New(Config{Dim: 128, ImgSize: 16})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	g := trace.BuildGraph(e.Trace())
	n2s, _ := g.CrossPhaseEdges()
	if n2s == 0 {
		t.Fatal("symbolic phase must consume neural outputs (Fig. 4 pattern)")
	}
}

// TestRunAllocationBound guards NVSA's run-scoped tensor lifetimes: every
// engine output is drawn from the backend's scratch pool and recycled
// when the run ends, so a Run on a warm pool reuses the previous run's
// buffers. It measures the second Run; GC is off so the pool is never
// emptied mid-measurement.
//
// Before the lifetimes were run-scoped, one Run allocated 20.2 MiB.
func TestRunAllocationBound(t *testing.T) {
	w := New(Config{})
	pool := ops.Config{}.NewPool()
	defer pool.Close()
	run := func() {
		e := pool.Engine()
		if err := w.Run(e); err != nil {
			t.Fatal(err)
		}
		e.Recycle()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const limit = 8 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NVSA warm Run allocated %.2f MiB", float64(got)/(1<<20))
	if got > limit && !raceEnabled {
		t.Fatalf("NVSA warm Run allocated %d bytes (%.1f MiB), want <= %d (8 MiB)", got, float64(got)/(1<<20), limit)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
