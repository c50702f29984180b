package ops

import (
	"reflect"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/sparse"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestEngineRecordsEvents(t *testing.T) {
	e := New()
	a := tensor.Ones(2, 3)
	b := tensor.Ones(3, 4)
	c := e.MatMul(a, b)
	if c.Dim(0) != 2 || c.Dim(1) != 4 || c.At(0, 0) != 3 {
		t.Fatalf("MatMul result wrong: %v", c.Data())
	}
	tr := e.Trace()
	if tr.Len() != 1 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	ev := tr.Events[0]
	if ev.Name != "MatMul" || ev.Kernel != "sgemm_nn" || ev.Category != trace.MatMul {
		t.Fatalf("event = %+v", ev)
	}
	if ev.FLOPs != tensor.FlopsMatMul(2, 3, 4) {
		t.Fatalf("FLOPs = %d", ev.FLOPs)
	}
	if len(ev.Inputs) != 2 || len(ev.Outputs) != 1 || ev.Outputs[0] != c.ID() {
		t.Fatalf("IDs not tracked: %+v", ev)
	}
	if ev.Alloc != c.Bytes() {
		t.Fatalf("Alloc = %d, want %d", ev.Alloc, c.Bytes())
	}
	if ev.Dur <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestPhaseAndStageScoping(t *testing.T) {
	e := New()
	a := tensor.Ones(4)
	e.InPhase(trace.Symbolic, func() {
		e.InStage("bind", func() {
			e.Add(a, a)
		})
		e.Mul(a, a)
	})
	e.ReLU(a)
	evs := e.Trace().Events
	if evs[0].Phase != trace.Symbolic || evs[0].Stage != "bind" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Phase != trace.Symbolic || evs[1].Stage != "" {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	// InPhase restored the phase the engine started in: neural.
	if evs[2].Phase != trace.Neural {
		t.Fatalf("event 2 = %+v", evs[2])
	}
}

func TestSparsityMeasurement(t *testing.T) {
	e := New()
	a := tensor.FromSlice([]float32{-1, -2, 3, 4}, 4)
	e.MeasureSparsity(true)
	r := e.ReLU(a)
	if r.Sparsity(0) != 0.5 {
		t.Fatalf("output sparsity = %v", r.Sparsity(0))
	}
	ev := e.Trace().Events[0]
	if ev.Sparsity != 0.5 {
		t.Fatalf("recorded sparsity = %v", ev.Sparsity)
	}
	e.MeasureSparsity(false)
	e.ReLU(a)
	if e.Trace().Events[1].Sparsity != -1 {
		t.Fatal("sparsity should be unmeasured (-1) when disabled")
	}
}

func TestConvEventCosts(t *testing.T) {
	e := New()
	g := tensor.NewRNG(1)
	in := g.Normal(0, 1, 1, 3, 8, 8)
	w := g.Normal(0, 1, 4, 3, 3, 3)
	out := e.Conv2DBatch(in, w, nil, 1, 1, 1)
	if out.Dim(1) != 4 || out.Dim(2) != 8 {
		t.Fatalf("conv output shape = %v", out.Shape())
	}
	ev := e.Trace().Events[0]
	if ev.Category != trace.Convolution || ev.Kernel != "conv2d" {
		t.Fatalf("conv event = %+v", ev)
	}
	if ev.FLOPs != tensor.FlopsConv2D(1, 3, 4, 8, 8, 3, 3) {
		t.Fatalf("conv FLOPs = %d", ev.FLOPs)
	}
}

func TestEltwiseKernelsAndCategories(t *testing.T) {
	e := New()
	a := tensor.Ones(8)
	e.Add(a, a)
	e.ReLU(a)
	e.Tanh(a)
	e.Softmax(a)
	evs := e.Trace().Events
	if evs[0].Kernel != "vectorized_elem" || evs[1].Kernel != "relu_nn" || evs[2].Kernel != "elementwise" {
		t.Fatalf("kernels = %s %s %s", evs[0].Kernel, evs[1].Kernel, evs[2].Kernel)
	}
	for _, ev := range evs {
		if ev.Category != trace.VectorEltwise {
			t.Fatalf("category = %v", ev.Category)
		}
	}
}

func TestTransformAndMovement(t *testing.T) {
	e := New()
	a := tensor.Ones(2, 3)
	e.Transpose(a)
	e.Copy(a)
	e.HostToDevice(a)
	e.DeviceToHost(a)
	e.Gather(a, []int{1, 0})
	evs := e.Trace().Events
	if evs[0].Category != trace.DataTransform {
		t.Fatalf("Transpose category = %v", evs[0].Category)
	}
	for i := 1; i <= 3; i++ {
		if evs[i].Category != trace.DataMovement {
			t.Fatalf("movement category = %v", evs[i].Category)
		}
	}
	if evs[2].Kernel != "memcpy_h2d" || evs[3].Kernel != "memcpy_d2h" {
		t.Fatalf("memcpy kernels = %s, %s", evs[2].Kernel, evs[3].Kernel)
	}
	if evs[4].Category != trace.DataTransform || evs[4].Kernel != "gather" {
		t.Fatalf("gather event = %+v", evs[4])
	}
}

func TestReductionsAndArgMax(t *testing.T) {
	e := New()
	a := tensor.FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	s := e.SumAxis(a, 1)
	if s.At(0) != 8 || s.At(1) != 12 {
		t.Fatalf("SumAxis = %v", s.Data())
	}
	mx := e.MaxAxis(a, 1)
	if mx.At(0) != 5 || mx.At(1) != 9 {
		t.Fatalf("MaxAxis = %v", mx.Data())
	}
	for _, ev := range e.Trace().Events {
		if ev.Kernel != "reduce" {
			t.Fatalf("reduce kernel = %s", ev.Kernel)
		}
	}
}

func TestCircularOpsAndLogic(t *testing.T) {
	e := New()
	e.SetPhase(trace.Symbolic)
	g := tensor.NewRNG(2)
	a, b := g.HRRVector(128), g.HRRVector(128)
	bound := e.CircularConv(a, b)
	out := e.Logic("RuleCheck", 100, 50, []*tensor.Tensor{bound}, func() []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Scalar(0.75)}
	})
	if out[0].Item() != 0.75 {
		t.Fatalf("Logic = %v", out[0].Item())
	}
	evs := e.Trace().Events
	if evs[0].Name != "CircularConv" || evs[0].Category != trace.VectorEltwise {
		t.Fatalf("circconv event = %+v", evs[0])
	}
	if evs[1].Category != trace.Other || evs[1].Kernel != "logic" {
		t.Fatalf("logic event = %+v", evs[1])
	}
	if evs[1].FLOPs != 100 || evs[1].Bytes != 50 {
		t.Fatalf("logic costs = %d, %d", evs[1].FLOPs, evs[1].Bytes)
	}
}

func TestSparseOps(t *testing.T) {
	e := New()
	m := sparse.NewCOO(3, 3)
	m.Append(0, 0, 2)
	m.Append(1, 2, 1)
	m.Append(1, 2, 1) // duplicate, merged by ToCSR
	csr := m.ToCSR()
	b := tensor.Ones(3, 2)
	z := e.SpMMBatch([]*sparse.CSR{csr}, b)
	if z.At(0, 0) != 2 || z.At(1, 0) != 2 || z.At(2, 0) != 0 {
		t.Fatalf("SpMM = %v", z.Data())
	}
	s := e.SDDMMBatch(csr, tensor.Ones(3, 2), tensor.Ones(3, 2), 1)
	if len(s) != 1 || s[0].NNZ() != 2 || s[0].Val[0] != 4 || s[0].Val[1] != 4 {
		t.Fatalf("SDDMM = %+v", s)
	}
	evs := e.Trace().Events
	if evs[0].Kernel != "spmm" || evs[1].Kernel != "sddmm" {
		t.Fatalf("sparse kernels = %s, %s", evs[0].Kernel, evs[1].Kernel)
	}
	if evs[0].Category != trace.MatMul || evs[1].Category != trace.MatMul {
		t.Fatal("sparse matmul category wrong")
	}
}

func TestRegisterParams(t *testing.T) {
	e := New()
	w := tensor.Ones(10, 10)
	e.RegisterParam("fc1", "weight", w)
	e.SetPhase(trace.Symbolic)
	e.RegisterParamBytes("codebook", "codebook", 4096)
	m := e.Trace().ParamBytesByKind()
	if m["weight"] != 400 || m["codebook"] != 4096 {
		t.Fatalf("param bytes = %v", m)
	}
	ps := e.Trace().Params()
	if ps[0].Phase != trace.Neural || ps[1].Phase != trace.Symbolic {
		t.Fatal("param phases wrong")
	}
}

func TestGraphFromEngineTrace(t *testing.T) {
	e := New()
	a := tensor.Ones(4, 4)
	b := e.MatMul(a, a)
	c := e.ReLU(b)
	e.SetPhase(trace.Symbolic)
	e.Add(c, c)
	g := trace.BuildGraph(e.Trace())
	if g.Edges() < 2 {
		t.Fatalf("expected chained dependencies, edges = %d", g.Edges())
	}
	path, _ := g.CriticalPath()
	if len(path) != 3 {
		t.Fatalf("critical path length = %d", len(path))
	}
	n2s, _ := g.CrossPhaseEdges()
	if n2s != 1 {
		t.Fatalf("neural→symbolic edges = %d", n2s)
	}
}

func TestReshapeAliasTracked(t *testing.T) {
	e := New()
	a := tensor.Ones(2, 2)
	r := e.Reshape(a, 4)
	if r.Size() != 4 {
		t.Fatal("reshape failed")
	}
	ev := e.Trace().Events[0]
	if ev.Category != trace.DataTransform || len(ev.Outputs) != 1 {
		t.Fatalf("reshape event = %+v", ev)
	}
}

// MatVecs must leave the trace that n MatVec calls leave, field by field,
// under replica amplification too; only the timing differs: one measured
// run split evenly into back-to-back events that sum to it. The observer
// sees every event.
func TestMatVecsRecordsMatVecEvents(t *testing.T) {
	g := tensor.NewRNG(9)
	a := g.Normal(0, 1, 37, 29)
	for _, n := range []int{1, 3, 4, 6, 16} {
		for _, replicas := range []int{1, 3} {
			xs := make([]*tensor.Tensor, n)
			xs[0] = tensor.New(29) // an all-zero output: sparsity 1
			for j := 1; j < n; j++ {
				xs[j] = g.Normal(0, 1, 29)
			}
			seq, bat := New(), New()
			for _, e := range []*Engine{seq, bat} {
				e.SetPhase(trace.Symbolic)
				e.MeasureSparsity(true)
				e.SetReplicas(replicas)
			}
			var observed []trace.Event
			bat.SetObserver(func(ev *trace.Event) { observed = append(observed, *ev) })
			want := make([]*tensor.Tensor, n)
			seq.InStage("cleanup", func() {
				for j, x := range xs {
					want[j] = seq.MatVec(a, x)
				}
			})
			var got []*tensor.Tensor
			var before time.Time
			var elapsed time.Duration
			bat.InStage("cleanup", func() {
				before = time.Now()
				got = bat.MatVecs(a, xs)
				elapsed = time.Since(before)
			})

			se, be := seq.Trace().Events, bat.Trace().Events
			if len(got) != n || len(se) != n || len(be) != n || len(observed) != n {
				t.Fatalf("n=%d: %d outputs, %d MatVec events, %d MatVecs events, %d observed", n, len(got), len(se), len(be), len(observed))
			}
			var total time.Duration
			for j := range xs {
				for i, v := range want[j].Data() {
					if got[j].Data()[i] != v {
						t.Fatalf("n=%d query %d element %d: MatVecs %v, MatVec %v", n, j, i, got[j].Data()[i], v)
					}
				}
				s, b := se[j], be[j]
				if len(b.Outputs) != 1 || b.Outputs[0] != got[j].ID() {
					t.Fatalf("n=%d query %d: outputs %v, want [%d]", n, j, b.Outputs, got[j].ID())
				}
				obs := observed[j]
				obs.Seq = b.Seq
				if !reflect.DeepEqual(obs, b) {
					t.Fatalf("n=%d query %d: observer saw %+v, trace holds %+v", n, j, obs, b)
				}
				if j > 0 && !b.Start.Equal(be[j-1].Start.Add(be[j-1].Dur)) {
					t.Fatalf("n=%d query %d: start %v does not follow the previous event's end", n, j, b.Start)
				}
				if d := b.Dur - be[0].Dur; d < -1 || d > 1 {
					t.Fatalf("n=%d query %d: duration %v, first %v: not an even split", n, j, b.Dur, be[0].Dur)
				}
				total += b.Dur
				s.Start, s.Dur, s.Outputs = time.Time{}, 0, nil
				b.Start, b.Dur, b.Outputs = time.Time{}, 0, nil
				if !reflect.DeepEqual(s, b) {
					t.Fatalf("n=%d replicas=%d query %d:\nMatVec  %+v\nMatVecs %+v", n, replicas, j, s, b)
				}
			}
			if be[0].Start.Before(before) || total <= 0 || total > elapsed {
				t.Fatalf("n=%d: events span %v from %v, want within the %v call from %v", n, total, be[0].Start, elapsed, before)
			}
		}
	}
	e := New()
	if outs := e.MatVecs(a, nil); len(outs) != 0 || e.Trace().Len() != 0 {
		t.Fatalf("no queries: %d outputs, %d events", len(outs), e.Trace().Len())
	}
}
