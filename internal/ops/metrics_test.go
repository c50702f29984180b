package ops

import (
	"bytes"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestEngineObserverSeesEveryEvent(t *testing.T) {
	var seen []string
	e := New()
	e.SetObserver(func(ev *trace.Event) { seen = append(seen, ev.Name) })
	g := tensor.NewRNG(1)
	a, b := g.Normal(0, 1, 8), g.Normal(0, 1, 8)
	e.Add(a, b)
	e.Mul(a, b)
	if len(seen) != 2 || len(e.Trace().Events) != 2 {
		t.Fatalf("observer saw %v, trace has %d events; want both = 2", seen, len(e.Trace().Events))
	}
	for i, ev := range e.Trace().Events {
		if ev.Name != seen[i] {
			t.Fatalf("observer order %v != trace order", seen)
		}
	}
}

func TestPoolObserverAppliesToNewEngines(t *testing.T) {
	p := Config{}.NewPool()
	defer p.Close()
	var n int
	p.SetObserver(func(*trace.Event) { n++ })
	e := p.Engine()
	g := tensor.NewRNG(1)
	e.Add(g.Normal(0, 1, 4), g.Normal(0, 1, 4))
	if n != 1 {
		t.Fatalf("pool observer saw %d events, want 1", n)
	}
	p.SetObserver(nil)
	if p.Engine(); n != 1 {
		t.Fatal("cleared observer still active")
	}
}

func TestNewOpObserverRecordsByCategoryAndPhase(t *testing.T) {
	reg := metrics.NewRegistry()
	obs := NewOpObserver(reg)
	e := New()
	e.SetObserver(obs)
	g := tensor.NewRNG(1)
	a, b := g.Normal(0, 1, 8), g.Normal(0, 1, 8)
	e.Add(a, b) // vector-eltwise, neural
	e.InPhase(trace.Symbolic, func() { e.Mul(a, b) })

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ns_op_seconds_count{category="Vector/Eltwise",phase="neural"} 1`,
		`ns_op_seconds_count{category="Vector/Eltwise",phase="symbolic"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterPoolMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	p := Config{Backend: BackendParallel, Workers: 2}.NewPool()
	defer p.Close()
	RegisterPoolMetrics(reg, p)
	e := p.Engine()
	e.Backend().For(1<<14, 1, func(lo, hi int) {})

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ns_backend_workers 2") {
		t.Fatalf("missing worker gauge:\n%s", out)
	}
	if !strings.Contains(out, "ns_pool_splits_total 1") {
		t.Fatalf("missing split counter:\n%s", out)
	}

	// The serial backend registers only the width gauge.
	reg2 := metrics.NewRegistry()
	sp := Config{}.NewPool()
	defer sp.Close()
	RegisterPoolMetrics(reg2, sp)
	var buf2 bytes.Buffer
	if err := reg2.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "ns_pool_splits_total") {
		t.Fatal("serial backend must not report pool counters")
	}
	if !strings.Contains(buf2.String(), "ns_backend_workers 1") {
		t.Fatalf("serial backend missing width gauge:\n%s", buf2.String())
	}
}
