package core

import (
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/workloads/nvsa"
)

// characterizeNVSA runs one NVSA characterization on a pool of the given
// backend and returns its trace.
func characterizeNVSA(t *testing.T, eng ops.Config) *trace.Trace {
	t.Helper()
	pool := eng.NewPool()
	defer pool.Close()
	r, err := Characterize(nvsa.New(nvsa.Config{}), Options{Pool: pool})
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	return r.Trace
}

// sameTraceModuloTiming checks that two traces describe the same
// computation: same events in the same order with identical analytic
// counters. Wall time (Dur) and tensor IDs (drawn from a process-global
// counter) legitimately differ between runs and are excluded.
func sameTraceModuloTiming(t *testing.T, label string, a, b *trace.Trace) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: event counts differ: %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Events {
		x, y := &a.Events[i], &b.Events[i]
		if x.Name != y.Name || x.Kernel != y.Kernel || x.Stage != y.Stage ||
			x.Category != y.Category || x.Phase != y.Phase {
			t.Fatalf("%s: event %d identity differs:\n  %+v\n  %+v", label, i, x, y)
		}
		if x.FLOPs != y.FLOPs || x.Bytes != y.Bytes || x.Alloc != y.Alloc {
			t.Fatalf("%s: event %d (%s) counters differ: flops %d/%d bytes %d/%d alloc %d/%d",
				label, i, x.Name, x.FLOPs, y.FLOPs, x.Bytes, y.Bytes, x.Alloc, y.Alloc)
		}
		if x.Sparsity != y.Sparsity {
			t.Fatalf("%s: event %d (%s) sparsity differs: %v vs %v",
				label, i, x.Name, x.Sparsity, y.Sparsity)
		}
	}
	if len(a.Params()) != len(b.Params()) {
		t.Fatalf("%s: param counts differ: %d vs %d", label, len(a.Params()), len(b.Params()))
	}
	for i, p := range a.Params() {
		if p != b.Params()[i] {
			t.Fatalf("%s: param %d differs: %+v vs %+v", label, i, p, b.Params()[i])
		}
	}
}

// TestParallelCharacterizationDeterministic is the end-to-end determinism
// guarantee: a characterization run on the parallel backend records the
// same trace as the serial backend, and two parallel runs agree with each
// other. Only wall-clock durations may differ.
func TestParallelCharacterizationDeterministic(t *testing.T) {
	serial := characterizeNVSA(t, ops.Config{})
	par := ops.Config{Backend: ops.BackendParallel, Workers: 4}
	p1 := characterizeNVSA(t, par)
	p2 := characterizeNVSA(t, par)

	sameTraceModuloTiming(t, "serial vs parallel", serial, p1)
	sameTraceModuloTiming(t, "parallel vs parallel", p1, p2)
}
