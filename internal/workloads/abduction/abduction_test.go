package abduction

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// onehot builds a PMF with all mass at v over lv levels.
func onehot(v, lv int) *tensor.Tensor { return tensor.OneHot(v, lv) }

func TestShiftPMF(t *testing.T) {
	e := ops.New()
	p := tensor.FromSlice([]float32{0.1, 0.7, 0.2}, 3)
	s := ShiftPMF(e, p, 1) // out[v] = p[v+1]
	if s.At(0) != 0.7 || s.At(1) != 0.2 || s.At(2) != 0 {
		t.Fatalf("ShiftPMF(+1) = %v", s.Data())
	}
	s2 := ShiftPMF(e, p, -1)
	if s2.At(0) != 0 || s2.At(1) != 0.1 || s2.At(2) != 0.7 {
		t.Fatalf("ShiftPMF(-1) = %v", s2.Data())
	}
}

func TestJoint(t *testing.T) {
	e := ops.New()
	a := tensor.FromSlice([]float32{0.5, 0.5}, 2)
	b := tensor.FromSlice([]float32{1, 0, 0}, 3)
	j := Joint(e, a, b)
	if j.Size() != 6 || j.At(0) != 0.5 || j.At(3) != 0.5 || j.At(1) != 0 {
		t.Fatalf("Joint = %v", j.Data())
	}
	if s := j.Sum(); s < 0.999 || s > 1.001 {
		t.Fatalf("joint mass = %v", s)
	}
}

func TestRowProbConstant(t *testing.T) {
	e := ops.New()
	row := []*tensor.Tensor{onehot(2, 5), onehot(2, 5), onehot(2, 5)}
	p := RowProb(e, CandidateRule{Type: raven.Constant}, row)
	if p.Item() != 1 {
		t.Fatalf("constant prob = %v", p.Item())
	}
	bad := []*tensor.Tensor{onehot(2, 5), onehot(3, 5), onehot(2, 5)}
	if RowProb(e, CandidateRule{Type: raven.Constant}, bad).Item() != 0 {
		t.Fatal("non-constant row scored as constant")
	}
}

func TestRowProbProgression(t *testing.T) {
	e := ops.New()
	row := []*tensor.Tensor{onehot(1, 6), onehot(3, 6), onehot(5, 6)}
	p := RowProb(e, CandidateRule{Type: raven.Progression, Delta: 2}, row)
	if p.Item() != 1 {
		t.Fatalf("progression prob = %v", p.Item())
	}
	if RowProb(e, CandidateRule{Type: raven.Progression, Delta: 1}, row).Item() != 0 {
		t.Fatal("wrong delta scored nonzero")
	}
}

func TestRowProbArithmetic(t *testing.T) {
	e := ops.New()
	// Counts: 2 + 3 = 5 → bins 1, 2, 4 with lv = 9.
	row := []*tensor.Tensor{onehot(1, 9), onehot(2, 9), onehot(4, 9)}
	p := RowProb(e, CandidateRule{Type: raven.Arithmetic, Delta: 1}, row)
	if p.Item() != 1 {
		t.Fatalf("arithmetic(+) prob = %v", p.Item())
	}
	// Counts: 5 - 3 = 2 → bins 4, 2, 1.
	row2 := []*tensor.Tensor{onehot(4, 9), onehot(2, 9), onehot(1, 9)}
	if RowProb(e, CandidateRule{Type: raven.Arithmetic, Delta: -1}, row2).Item() != 1 {
		t.Fatal("arithmetic(-) prob wrong")
	}
}

func TestRowProbDistributeThree(t *testing.T) {
	e := ops.New()
	distinct := []*tensor.Tensor{onehot(0, 5), onehot(2, 5), onehot(4, 5)}
	p := RowProb(e, CandidateRule{Type: raven.DistributeThree}, distinct)
	if p.Item() < 0.999 {
		t.Fatalf("distinct-row D3 prob = %v", p.Item())
	}
	repeated := []*tensor.Tensor{onehot(1, 5), onehot(1, 5), onehot(4, 5)}
	if RowProb(e, CandidateRule{Type: raven.DistributeThree}, repeated).Item() > 1e-5 {
		t.Fatal("repeated-value row scored as distribute-three")
	}
}

func TestAbduceAndBestRule(t *testing.T) {
	e := ops.New()
	rows := [][]*tensor.Tensor{
		{onehot(1, 6), onehot(2, 6), onehot(3, 6)},
		{onehot(0, 6), onehot(1, 6), onehot(2, 6)},
		{onehot(2, 6), onehot(3, 6)}, // last row, incomplete
	}
	scores := Abduce(e, raven.Size, 3, rows)
	best, s := BestRule(raven.Size, 3, scores)
	if best.Type != raven.Progression || best.Delta != 1 {
		t.Fatalf("best rule = %v (score %v)", best, s)
	}
}

func TestExecuteConstantAndProgression(t *testing.T) {
	e := ops.New()
	last := []*tensor.Tensor{onehot(3, 6), onehot(3, 6)}
	pred := Execute(e, CandidateRule{Type: raven.Constant}, last)
	if tensor.ArgMax(pred) != 3 {
		t.Fatalf("constant execution mode = %d", tensor.ArgMax(pred))
	}
	lastP := []*tensor.Tensor{onehot(1, 6), onehot(2, 6)}
	predP := Execute(e, CandidateRule{Type: raven.Progression, Delta: 1}, lastP)
	if tensor.ArgMax(predP) != 3 {
		t.Fatalf("progression execution mode = %d", tensor.ArgMax(predP))
	}
}

func TestExecuteArithmetic(t *testing.T) {
	e := ops.New()
	// Counts 2 + 3 → 5: bins 1, 2 → 4.
	last := []*tensor.Tensor{onehot(1, 9), onehot(2, 9)}
	pred := Execute(e, CandidateRule{Type: raven.Arithmetic, Delta: 1}, last)
	if tensor.ArgMax(pred) != 4 {
		t.Fatalf("arithmetic execution mode = %d", tensor.ArgMax(pred))
	}
}

func TestExecuteWithContextDistributeThree(t *testing.T) {
	e := ops.New()
	rows := [][]*tensor.Tensor{
		{onehot(0, 5), onehot(2, 5), onehot(4, 5)},
		{onehot(2, 5), onehot(4, 5), onehot(0, 5)},
		{onehot(4, 5), onehot(0, 5)}, // missing value must be 2
	}
	pred := ExecuteWithContext(e, CandidateRule{Type: raven.DistributeThree}, rows)
	if tensor.ArgMax(pred) != 2 {
		t.Fatalf("D3 completion mode = %d (%v)", tensor.ArgMax(pred), pred.Data())
	}
}

func TestCandidatesSpace(t *testing.T) {
	cs := Candidates(raven.Number, 3)
	hasArith, hasD3 := false, false
	for _, c := range cs {
		if c.Type == raven.Arithmetic {
			hasArith = true
		}
		if c.Type == raven.DistributeThree {
			hasD3 = true
		}
	}
	if !hasArith || !hasD3 {
		t.Fatalf("number candidates incomplete: %v", cs)
	}
	cs2 := Candidates(raven.Color, 2)
	for _, c := range cs2 {
		if c.Type == raven.Arithmetic || c.Type == raven.DistributeThree {
			t.Fatalf("2x2 candidates must exclude %v", c)
		}
	}
}

func TestAbduceNoisyStillCorrect(t *testing.T) {
	e := ops.New()
	g := tensor.NewRNG(9)
	noisy := func(v, lv int) *tensor.Tensor {
		p := tensor.New(lv)
		for i := 0; i < lv; i++ {
			p.Data()[i] = 0.02 / float32(lv)
		}
		p.Data()[v] += 0.98
		return p
	}
	_ = g
	rows := [][]*tensor.Tensor{
		{noisy(1, 6), noisy(2, 6), noisy(3, 6)},
		{noisy(2, 6), noisy(3, 6), noisy(4, 6)},
		{noisy(0, 6), noisy(1, 6)},
	}
	scores := Abduce(e, raven.Size, 3, rows)
	best, _ := BestRule(raven.Size, 3, scores)
	if best.Type != raven.Progression || best.Delta != 1 {
		t.Fatalf("noisy abduction picked %v", best)
	}
}

// TestPropAbduceRecoversGeneratedRules is the end-to-end soundness property
// of the abduction engine: for every rule the RAVEN generator can emit, the
// engine must identify that rule from the task's noiseless PMFs and its
// execution must predict exactly the generated answer's attribute value.
func TestPropAbduceRecoversGeneratedRules(t *testing.T) {
	g := tensor.NewRNG(99)
	e := ops.New()
	attrs := []raven.Attribute{raven.Number, raven.Type, raven.Size, raven.Color}
	for trial := 0; trial < 60; trial++ {
		task := raven.Generate(raven.Config{M: 3}, g)
		full := append(append([]raven.Panel{}, task.Context...), task.Answer())
		for ai, a := range attrs {
			rows := make([][]*tensor.Tensor, 3)
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					if r == 2 && c == 2 {
						continue
					}
					pmf := raven.PerceivePMF(full[r*3+c], 0, nil)
					rows[r] = append(rows[r], pmf[a])
				}
			}
			scores := Abduce(e, a, 3, rows)
			best, _ := BestRule(a, 3, scores)
			pred := ExecuteWithContext(e, best, rows)
			want := task.Answer().AttrValue(a)
			if a == raven.Number {
				want--
			}
			if got := tensor.ArgMax(pred); got != want {
				t.Fatalf("trial %d attr %v (true rule %v, detected %v): predicted %d, want %d",
					trial, a, task.Rules[ai], best, got, want)
			}
		}
	}
}

// poisonBackend hands out Scratch32 buffers pre-filled with NaN sentinels
// and never reuses a released one, in the style of tensor's poisonRunner:
// an expansion or product that left any pooled element unwritten turns
// the sentinels into NaN outputs and fails loudly.
type poisonBackend struct {
	backend.Backend
	drawn, released int
}

func (p *poisonBackend) Scratch32(n int) []float32 {
	p.drawn++
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf
}

func (p *poisonBackend) Release32([]float32) { p.released++ }

// gatherJoint is the index-vector reference Joint: build the two index
// vectors, gather each operand with them, multiply.
func gatherJoint(e *ops.Engine, a, b *tensor.Tensor) *tensor.Tensor {
	la, lb := a.Dim(0), b.Dim(0)
	idxA, idxB := make([]int, la*lb), make([]int, la*lb)
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			idxA[i*lb+j], idxB[i*lb+j] = i, j
		}
	}
	ea := e.Gather(a.Reshape(la, 1), idxA).Reshape(la * lb)
	eb := e.Gather(b.Reshape(lb, 1), idxB).Reshape(la * lb)
	return e.Mul(ea, eb)
}

// TestJointExpansionMatchesGather pins the index-free, pooled Joint to the
// index-vector gather path it replaced: bit-identical values and the same
// three recorded events (two Gathers and a Mul) with identical costs,
// sparsity and dataflow, on PrAE's scene-chain shapes and the degenerate
// 1×k and k×1 ones, serially and on a 2-worker pool, under poisoned scratch.
func TestJointExpansionMatchesGather(t *testing.T) {
	g := tensor.NewRNG(5)
	// pmf draws a vector with about half its entries exactly zero, so the
	// measured sparsity is not trivially 0 or 1.
	pmf := func(n int) *tensor.Tensor {
		p := g.Normal(0, 1, n)
		for i, v := range p.Data() {
			if v < 0 {
				p.Data()[i] = 0
			}
		}
		return p
	}
	shapes := [][2]int{{512, 5}, {2560, 6}, {15360, 10}, {1, 37}, {37, 1}, {1, 1}}
	backends := []struct {
		name string
		be   backend.Backend
	}{{"serial", backend.Serial{}}, {"parallel2", backend.NewParallel(2)}}
	for _, bk := range backends {
		defer bk.be.Close()
		for _, sh := range shapes {
			a, b := pmf(sh[0]), pmf(sh[1])
			run := func(be backend.Backend, joint func(*ops.Engine, *tensor.Tensor, *tensor.Tensor) *tensor.Tensor) (*tensor.Tensor, []trace.Event) {
				e := ops.New(ops.WithBackend(be))
				e.SetPhase(trace.Symbolic)
				e.MeasureSparsity(true)
				e.SetSparsityEps(0.01)
				var out *tensor.Tensor
				e.InStage("scene_inference", func() { out = joint(e, a, b) })
				return out, e.Trace().Events
			}
			pb := &poisonBackend{Backend: bk.be}
			got, gotEv := run(pb, Joint)
			want, wantEv := run(bk.be, gatherJoint)
			name := fmt.Sprintf("%s/%dx%d", bk.name, sh[0], sh[1])
			if pb.drawn != 2 || pb.released != 1 {
				t.Fatalf("%s: drew %d and released %d scratch buffers, want 2 and 1 (eb handed back, ea carries the joint)", name, pb.drawn, pb.released)
			}
			if got.Size() != want.Size() {
				t.Fatalf("%s: joint has %d elements, want %d", name, got.Size(), want.Size())
			}
			for i, w := range want.Data() {
				if v := got.Data()[i]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: joint[%d] = %v, gather path %v", name, i, v, w)
				}
			}
			if len(gotEv) != 3 || len(wantEv) != 3 {
				t.Fatalf("%s: recorded %d events, gather path %d; want 3", name, len(gotEv), len(wantEv))
			}
			if gf, wf := dataflow(gotEv, a, b), dataflow(wantEv, a, b); !reflect.DeepEqual(gf, wf) {
				t.Fatalf("%s: dataflow %v, gather path %v", name, gf, wf)
			}
			for i := range wantEv {
				ge, we := gotEv[i], wantEv[i]
				ge.Start, ge.Dur, ge.Inputs, ge.Outputs = time.Time{}, 0, nil, nil
				we.Start, we.Dur, we.Inputs, we.Outputs = time.Time{}, 0, nil, nil
				if !reflect.DeepEqual(ge, we) {
					t.Fatalf("%s: event %d = %+v, gather path %+v", name, i, ge, we)
				}
			}
			// The expansion events derive their sparsity from the operands'
			// zero counts; it must equal a scan of the expanded operands.
			n := sh[0] * sh[1]
			ea, eb := tensor.New(n), tensor.New(n)
			tensor.OuterExpandOn(tensor.Serial, ea, eb, a, b)
			for i, ex := range []*tensor.Tensor{ea, eb} {
				want := -1.0
				if n > 1 {
					want = ex.Sparsity(0.01)
				}
				if got := gotEv[i].Sparsity; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: event %d sparsity %v, scan of the expanded operand %v", name, i, got, want)
				}
			}
		}
	}
}

// dataflow renumbers each event's input and output tensor IDs in
// first-seen order, with the shared operands a and b fixed as 0 and 1, so
// runs that allocate different tensors can be compared edge for edge.
func dataflow(evs []trace.Event, a, b *tensor.Tensor) [][2][]int {
	seen := map[uint64]int{a.ID(): 0, b.ID(): 1}
	ids := func(in []uint64) []int {
		var out []int
		for _, id := range in {
			if _, ok := seen[id]; !ok {
				seen[id] = len(seen)
			}
			out = append(out, seen[id])
		}
		return out
	}
	var flow [][2][]int
	for _, ev := range evs {
		flow = append(flow, [2][]int{ids(ev.Inputs), ids(ev.Outputs)})
	}
	return flow
}
