package vsait

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestTranslateRuns(t *testing.T) {
	w := New(Config{ImgSize: 16, Dim: 512})
	e := ops.New()
	loss, err := w.Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	if loss != loss { // NaN check
		t.Fatal("loss is NaN")
	}
}

func TestSymbolicDominates(t *testing.T) {
	// Paper: VSAIT is 83.7% symbolic under the default configuration.
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	if share := e.Trace().PhaseShare(trace.Symbolic); share < 0.5 {
		t.Fatalf("symbolic share = %v, want > 0.5", share)
	}
}

func TestBindingSelfInverseInsideRun(t *testing.T) {
	// MAP binding is exactly self-inverse, so the recovery residual inside
	// the hyperspace stage must be zero: the loss equals the similarity
	// terms only, and must be finite and bounded.
	w := New(Config{ImgSize: 16, Dim: 256})
	e := ops.New()
	loss, err := w.Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	if loss < -3 || loss > 3 {
		t.Fatalf("loss = %v out of expected range", loss)
	}
}

func TestHyperspaceStageEltwiseHeavy(t *testing.T) {
	w := New(Config{ImgSize: 16, Dim: 512})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	sh := tr.CategoryShare(trace.Symbolic)
	if sh[trace.VectorEltwise]+sh[trace.MatMul] < 0.4 {
		t.Fatalf("symbolic should be vector-op dominated: %v", sh)
	}
	found := false
	for _, s := range tr.ByStage() {
		if s.Stage == "hyperspace" {
			found = true
		}
	}
	if !found {
		t.Fatal("hyperspace stage missing")
	}
}

func TestNeuralConvHeavy(t *testing.T) {
	w := New(Config{ImgSize: 16, Dim: 256})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	sh := e.Trace().CategoryShare(trace.Neural)
	if sh[trace.Convolution] < 0.3 {
		t.Fatalf("neural conv share = %v, want dominant (Fig. 3a)", sh[trace.Convolution])
	}
}

func TestParamsRegistered(t *testing.T) {
	w := New(Config{ImgSize: 16, Dim: 256})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	kinds := e.Trace().ParamBytesByKind()
	if kinds["weight"] == 0 || kinds["codebook"] == 0 {
		t.Fatalf("params missing: %v", kinds)
	}
}

func TestNameCategory(t *testing.T) {
	w := New(Config{ImgSize: 16, Dim: 128})
	if w.Name() != "VSAIT" || w.Category() != "Neuro|Symbolic" {
		t.Fatal("identity wrong")
	}
}

// TestRunAllocationBound guards VSAIT's run-scoped tensor lifetimes: every
// engine output is drawn from the backend's scratch pool and recycled
// when the run ends, so a Run on a warm pool reuses the previous run's
// buffers. It measures the second Run; GC is off so the pool is never
// emptied mid-measurement.
//
// Before the lifetimes were run-scoped, one Run allocated 35.6 MiB.
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
	const limit = 2 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("VSAIT warm Run allocated %.2f MiB", float64(got)/(1<<20))
	if got > limit && !raceEnabled {
		t.Fatalf("VSAIT warm Run allocated %d bytes (%.1f MiB), want <= %d (2 MiB)", got, float64(got)/(1<<20), limit)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
