package ops

import (
	"testing"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/tensor"
)

func TestNewDefaultsToSerialBackend(t *testing.T) {
	e := New()
	if got := e.Backend().Name(); got != "serial" {
		t.Fatalf("default backend is %q, want serial", got)
	}
	// One worker is pointless parallelism; the engine keeps serial.
	if got := (Config{Backend: BackendParallel, Workers: 1}).New().Backend().Name(); got != "serial" {
		t.Fatalf("one-worker parallel config backend is %q, want serial", got)
	}
}

func TestWithBackendShares(t *testing.T) {
	be := backend.NewParallel(2)
	defer be.Close()
	e1, e2 := New(WithBackend(be)), New(WithBackend(be))
	if e1.Backend() != e2.Backend() {
		t.Fatal("engines do not share the injected backend")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, name := range []string{"", BackendSerial, BackendParallel} {
		if err := (Config{Backend: name}).Validate(); err != nil {
			t.Errorf("Validate(%q): %v", name, err)
		}
	}
	if err := (Config{Backend: "gpu"}).Validate(); err == nil {
		t.Error("Validate(gpu) accepted an unknown backend")
	}
}

// A Config's engine factory is its pool: every engine the pool hands out
// shares one backend of the configured worker count.
func TestConfigFactorySharesBackend(t *testing.T) {
	pool := Config{Backend: BackendParallel, Workers: 2}.NewPool()
	e1, e2 := pool.Engine(), pool.Engine()
	if e1.Backend() != e2.Backend() {
		t.Fatal("pool engines do not share one backend")
	}
	if e1.Backend().Workers() != 2 {
		t.Fatalf("workers = %d, want 2", e1.Backend().Workers())
	}
	pool.Close()
	pool.Close() // idempotent
	// Engines survive Close by degrading to inline dispatch.
	e1.Backend().For(4, 1, func(lo, hi int) {})
}

func TestPoolEngineAndClose(t *testing.T) {
	pool := Config{Backend: BackendParallel, Workers: 2}.NewPool()
	e1, e2 := pool.Engine(), pool.Engine()
	if e1.Backend() != pool.Backend() || e2.Backend() != pool.Backend() {
		t.Fatal("pool engines do not run on the pool's backend")
	}
	if e1.Trace() == e2.Trace() {
		t.Fatal("pool engines must record into private traces")
	}
	pool.Close()
	pool.Close() // idempotent
}

func TestParallelEngineMatchesSerial(t *testing.T) {
	g := tensor.NewRNG(7)
	a, b := g.Normal(0, 1, 64, 64), g.Normal(0, 1, 64, 64)
	serial := New().MatMul(a, b)
	par := Config{Backend: BackendParallel, Workers: 4}.New()
	defer par.Close()
	got := par.MatMul(a, b)
	for i, v := range serial.Data() {
		if got.Data()[i] != v {
			t.Fatalf("element %d: serial %v parallel %v", i, v, got.Data()[i])
		}
	}
}

func TestOneToleratesEmptyOutputs(t *testing.T) {
	if got := one(nil); got != nil {
		t.Fatalf("one(nil) = %v, want nil", got)
	}
	if got := one([]*tensor.Tensor{}); got != nil {
		t.Fatalf("one(empty) = %v, want nil", got)
	}
}
