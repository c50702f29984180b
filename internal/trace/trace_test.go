package trace

import (
	"testing"
	"time"
)

func mkEvent(name string, cat Category, ph Phase, dur time.Duration, flops, bytes int64) Event {
	return Event{Name: name, Category: cat, Phase: ph, Dur: dur, FLOPs: flops, Bytes: bytes, Sparsity: -1}
}

func TestCategoryStrings(t *testing.T) {
	want := []string{"Convolution", "MatMul", "Vector/Eltwise", "DataTransform", "DataMovement", "Others"}
	for i, c := range Categories() {
		if c.String() != want[i] {
			t.Fatalf("category %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if Neural.String() != "neural" || Symbolic.String() != "symbolic" {
		t.Fatal("phase strings wrong")
	}
}

func TestAppendAssignsSeq(t *testing.T) {
	tr := New()
	tr.Append(mkEvent("a", MatMul, Neural, time.Millisecond, 10, 10))
	tr.Append(mkEvent("b", Other, Symbolic, time.Millisecond, 10, 10))
	if tr.Events[0].Seq != 0 || tr.Events[1].Seq != 1 {
		t.Fatal("sequence numbers not assigned in order")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestPhaseAggregation(t *testing.T) {
	tr := New()
	tr.Append(mkEvent("n1", MatMul, Neural, 30*time.Millisecond, 300, 30))
	tr.Append(mkEvent("s1", VectorEltwise, Symbolic, 60*time.Millisecond, 60, 600))
	tr.Append(mkEvent("s2", Other, Symbolic, 10*time.Millisecond, 10, 100))
	if tr.Duration() != 100*time.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if tr.PhaseDuration(Symbolic) != 70*time.Millisecond {
		t.Fatalf("PhaseDuration = %v", tr.PhaseDuration(Symbolic))
	}
	if got := tr.PhaseShare(Symbolic); got != 0.7 {
		t.Fatalf("PhaseShare = %v", got)
	}
	if got := tr.FLOPShare(Neural); got != 300.0/370 {
		t.Fatalf("FLOPShare = %v", got)
	}
	stats := tr.StatsByPhase()
	if stats[Symbolic].Events != 2 || stats[Symbolic].FLOPs != 70 || stats[Symbolic].Bytes != 700 {
		t.Fatalf("StatsByPhase = %+v", stats[Symbolic])
	}
	if stats[Symbolic].PeakWork != 600 {
		t.Fatalf("PeakWork = %d", stats[Symbolic].PeakWork)
	}
}

func TestEmptyTraceShares(t *testing.T) {
	tr := New()
	if tr.PhaseShare(Neural) != 0 || tr.FLOPShare(Symbolic) != 0 {
		t.Fatal("empty trace shares must be 0")
	}
}

func TestCategoryBreakdownAndShare(t *testing.T) {
	tr := New()
	tr.Append(mkEvent("c", Convolution, Neural, 40*time.Millisecond, 0, 0))
	tr.Append(mkEvent("m", MatMul, Neural, 60*time.Millisecond, 0, 0))
	tr.Append(mkEvent("v", VectorEltwise, Symbolic, 5*time.Millisecond, 0, 0))
	br := tr.CategoryBreakdown(Neural)
	if br[Convolution] != 40*time.Millisecond || br[MatMul] != 60*time.Millisecond {
		t.Fatalf("breakdown = %v", br)
	}
	sh := tr.CategoryShare(Neural)
	if sh[Convolution] != 0.4 || sh[MatMul] != 0.6 {
		t.Fatalf("share = %v", sh)
	}
	if len(tr.CategoryShare(Symbolic)) != 1 {
		t.Fatal("symbolic share should contain one category")
	}
}

func TestStages(t *testing.T) {
	tr := New()
	e1 := mkEvent("op1", VectorEltwise, Symbolic, time.Millisecond, 5, 5)
	e1.Stage = "pmf_to_vsa"
	e1.Sparsity = 0.9
	e1.Alloc = 100
	tr.Append(e1)
	e2 := mkEvent("op2", VectorEltwise, Symbolic, time.Millisecond, 5, 5)
	e2.Stage = "pmf_to_vsa"
	e2.Sparsity = 0.5
	e2.Alloc = 300
	tr.Append(e2)
	e3 := mkEvent("op3", Other, Symbolic, time.Millisecond, 1, 1)
	e3.Stage = "rule_detect"
	tr.Append(e3)
	tr.Append(mkEvent("nostage", MatMul, Neural, time.Millisecond, 1, 1))

	stages := tr.ByStage()
	if len(stages) != 2 {
		t.Fatalf("got %d stages", len(stages))
	}
	if stages[0].Stage != "pmf_to_vsa" || stages[0].Events != 2 {
		t.Fatalf("stage[0] = %+v", stages[0])
	}
	// Weighted mean: (0.9*100 + 0.5*300) / 400 = 0.6
	if stages[0].Sparsity < 0.59 || stages[0].Sparsity > 0.61 {
		t.Fatalf("weighted sparsity = %v", stages[0].Sparsity)
	}
}

func TestFilterAndTopOps(t *testing.T) {
	tr := New()
	tr.Append(mkEvent("short", MatMul, Neural, time.Millisecond, 0, 0))
	tr.Append(mkEvent("long", Other, Symbolic, time.Second, 0, 0))

	top := tr.TopOps(1)
	if len(top) != 1 || top[0].Name != "long" {
		t.Fatalf("TopOps = %+v", top)
	}
	if got := tr.TopOps(99); len(got) != 2 {
		t.Fatalf("TopOps clamp = %d", len(got))
	}
}

func TestParamBytesByKind(t *testing.T) {
	tr := New()
	tr.RegisterParam(Param{Name: "conv1", Kind: "weight", Bytes: 100})
	tr.RegisterParam(Param{Name: "conv2", Kind: "weight", Bytes: 50})
	tr.RegisterParam(Param{Name: "cb", Kind: "codebook", Bytes: 1000})
	m := tr.ParamBytesByKind()
	if m["weight"] != 150 || m["codebook"] != 1000 {
		t.Fatalf("ParamBytesByKind = %v", m)
	}
}

func TestGraphDependencies(t *testing.T) {
	tr := New()
	// e0 produces tensor 1; e1 consumes 1, produces 2; e2 consumes 2.
	tr.Append(Event{Name: "a", Dur: 2 * time.Millisecond, Outputs: []uint64{1}})
	tr.Append(Event{Name: "b", Dur: 3 * time.Millisecond, Inputs: []uint64{1}, Outputs: []uint64{2}})
	tr.Append(Event{Name: "c", Dur: 5 * time.Millisecond, Inputs: []uint64{2}, Outputs: []uint64{3}})
	// e3 independent.
	tr.Append(Event{Name: "d", Dur: 4 * time.Millisecond, Outputs: []uint64{4}})

	g := BuildGraph(tr)
	if g.Edges() != 2 {
		t.Fatalf("Edges = %d", g.Edges())
	}
	path, d := g.CriticalPath()
	if d != 10*time.Millisecond {
		t.Fatalf("critical path duration = %v", d)
	}
	if len(path) != 3 || g.Event(path[0]).Name != "a" || g.Event(path[2]).Name != "c" {
		t.Fatalf("critical path = %v", path)
	}
	if g.Depth() != 3 {
		t.Fatalf("Depth = %d", g.Depth())
	}
	if g.MaxWidth() != 2 { // a and d at depth 0
		t.Fatalf("MaxWidth = %d", g.MaxWidth())
	}
	frac := g.SequentialFraction()
	if frac < 0.70 || frac > 0.73 { // 10ms of 14ms
		t.Fatalf("SequentialFraction = %v", frac)
	}
}

func TestGraphLatestProducerWins(t *testing.T) {
	tr := New()
	tr.Append(Event{Name: "p1", Dur: time.Millisecond, Outputs: []uint64{7}})
	tr.Append(Event{Name: "p2", Dur: time.Millisecond, Outputs: []uint64{7}})
	tr.Append(Event{Name: "c", Dur: time.Millisecond, Inputs: []uint64{7}})
	g := BuildGraph(tr)
	if len(g.Parents[2]) != 1 || g.Parents[2][0] != 1 {
		t.Fatalf("consumer should depend on latest producer, parents=%v", g.Parents[2])
	}
}

func TestCrossPhaseEdges(t *testing.T) {
	tr := New()
	tr.Append(Event{Name: "n", Phase: Neural, Dur: time.Millisecond, Outputs: []uint64{1}})
	tr.Append(Event{Name: "s", Phase: Symbolic, Dur: time.Millisecond, Inputs: []uint64{1}, Outputs: []uint64{2}})
	tr.Append(Event{Name: "n2", Phase: Neural, Dur: time.Millisecond, Inputs: []uint64{2}})
	g := BuildGraph(tr)
	n2s, s2n := g.CrossPhaseEdges()
	if n2s != 1 || s2n != 1 {
		t.Fatalf("CrossPhaseEdges = %d, %d", n2s, s2n)
	}
	share := g.PathPhaseShare([]int{0, 1, 2})
	if share[Neural] < 0.6 || share[Neural] > 0.7 {
		t.Fatalf("PathPhaseShare = %v", share)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := BuildGraph(New())
	path, d := g.CriticalPath()
	if path != nil || d != 0 {
		t.Fatal("empty graph critical path should be empty")
	}
	if g.Depth() != 0 || g.SequentialFraction() != 0 {
		t.Fatal("empty graph metrics should be zero")
	}
}
