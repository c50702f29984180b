package tensor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/neurosym/nsbench/internal/backend"
)

// sameBits fails unless got and want have one shape and bit-identical
// elements (NaN payloads and the sign of zero included).
func sameBits(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// The element-wise operators as they were written before each got its own
// loop: one call through a function value per element. They are the
// reference the per-operator loops must reproduce bit for bit.

func funcBinOp(a, b *Tensor, f func(x, y float32) float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

func funcUnOp(a *Tensor, f func(x float32) float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

func addf(x, y float32) float32 { return x + y }
func subf(x, y float32) float32 { return x - y }
func mulf(x, y float32) float32 { return x * y }

func minf(x, y float32) float32 {
	if x < y {
		return x
	}
	return y
}

func maxf(x, y float32) float32 {
	if x > y {
		return x
	}
	return y
}

func greaterf(x, y float32) float32 {
	if x > y {
		return 1
	}
	return 0
}

func negf(x float32) float32 { return -x }

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func signf(x float32) float32 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func reluf(x float32) float32 {
	if x > 0 {
		return x
	}
	return 0
}

func sigmoidf(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanhf(x float32) float32    { return float32(math.Tanh(float64(x))) }

// eltwiseSpecials covers the IEEE corner cases: signed zeros, infinities,
// NaN, the largest and smallest magnitudes, and values at which exp
// overflows or underflows in float32.
var eltwiseSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -2.5, 3,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	88.8, -88.8, 1e-30,
}

// TestEltwiseMatchesFunctionValueForm checks every element-wise operator
// against its function-value form on every pair of special values, on the
// serial runner, a poisoned runner (so every output element must be
// written) and a parallel backend with chunks small enough to split.
func TestEltwiseMatchesFunctionValueForm(t *testing.T) {
	n := len(eltwiseSpecials)
	a, b := New(n*n), New(n*n)
	for i, x := range eltwiseSpecials {
		for j, y := range eltwiseSpecials {
			a.data[i*n+j], b.data[i*n+j] = x, y
		}
	}
	bins := []struct {
		name string
		on   func(Runner, *Tensor, *Tensor) *Tensor
		f    func(x, y float32) float32
	}{
		{"Add", AddOn, addf}, {"Sub", SubOn, subf}, {"Mul", MulOn, mulf},
		{"Minimum", MinimumOn, minf}, {"Maximum", MaximumOn, maxf}, {"Greater", GreaterOn, greaterf},
	}
	uns := []struct {
		name string
		on   func(Runner, *Tensor) *Tensor
		f    func(x float32) float32
	}{
		{"Neg", NegOn, negf}, {"Abs", AbsOn, absf}, {"Sign", SignOn, signf}, {"ReLU", ReLUOn, reluf},
		{"Sigmoid", SigmoidOn, sigmoidf}, {"Tanh", TanhOn, tanhf},
		{"AddScalar", func(r Runner, a *Tensor) *Tensor { return AddScalarOn(r, a, -2.5) }, func(x float32) float32 { return x + -2.5 }},
		{"MulScalar", func(r Runner, a *Tensor) *Tensor { return MulScalarOn(r, a, -0.5) }, func(x float32) float32 { return x * -0.5 }},
		{"Clamp", func(r Runner, a *Tensor) *Tensor { return ClampOn(r, a, -1, 3) }, func(x float32) float32 {
			if x < -1 {
				return -1
			}
			if x > 3 {
				return 3
			}
			return x
		}},
	}
	par := backend.NewParallel(3)
	defer par.Close()
	runners := []struct {
		name string
		r    Runner
	}{{"serial", Serial}, {"poisoned", &poisonRunner{}}, {"parallel", smallGrain{par}}}
	for _, rn := range runners {
		for _, op := range bins {
			want := funcBinOp(a, b, op.f)
			sameBits(t, op.name+"/"+rn.name, op.on(rn.r, a, b), want)
		}
		// MulToOn in place over a copy of a, as MulInPlace uses it.
		inPlace := a.Clone()
		sameBits(t, "MulTo(in place)/"+rn.name, MulToOn(rn.r, inPlace, inPlace, b), funcBinOp(a, b, mulf))
		for _, op := range uns {
			sameBits(t, op.name+"/"+rn.name, op.on(rn.r, a), funcUnOp(a, op.f))
		}
	}
}

// smallGrain runs a parallel backend with every dispatch split as finely
// as the worker count allows, whatever grain the kernel asks for.
type smallGrain struct{ *backend.Parallel }

func (s smallGrain) For(n, _ int, fn func(lo, hi int)) { s.Parallel.For(n, 1, fn) }

// TestKernelOutputsOverwritePoisonedScratch is the zeroing contract of
// runner-drawn outputs: every kernel an engine op runs draws its output
// through the Runner, where pooled memory is dirty. A kernel either
// zeroes the output (NewOn) or writes every element (emptyOn); on a
// runner whose buffers arrive NaN-filled, each must still match the
// serial result bit for bit.
func TestKernelOutputsOverwritePoisonedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m3 := randTensor(rng, 3, 4, 5)
	mat := randTensor(rng, 9, 13)
	rhs := randTensor(rng, 13, 11)
	vec := randTensor(rng, 13)
	img := randTensor(rng, 2, 3, 9, 9)
	wts := randTensor(rng, 4, 3, 3, 3)
	bias := randTensor(rng, 4)
	v48a, v48b := randTensor(rng, 48), randTensor(rng, 48)
	v128a, v128b := randTensor(rng, 128), randTensor(rng, 128)
	mask := New(9, 13)
	for i := range mask.data {
		if i%3 == 0 {
			mask.data[i] = 1
		}
	}
	queries := []*Tensor{randTensor(rng, 13), randTensor(rng, 13), randTensor(rng, 13)}
	kernels := []struct {
		name string
		run  func(Runner) []*Tensor
	}{
		{"SumAxis", func(r Runner) []*Tensor { return []*Tensor{SumAxisOn(r, m3, 1)} }},
		{"MeanAxis", func(r Runner) []*Tensor { return []*Tensor{MeanAxisOn(r, m3, 0)} }},
		{"MaxAxis", func(r Runner) []*Tensor { return []*Tensor{MaxAxisOn(r, m3, 2)} }},
		{"MinAxis", func(r Runner) []*Tensor { return []*Tensor{MinAxisOn(r, m3, 1)} }},
		{"Softmax", func(r Runner) []*Tensor { return []*Tensor{SoftmaxOn(r, mat)} }},
		{"Normalize", func(r Runner) []*Tensor { return []*Tensor{NormalizeOn(r, vec), NormalizeOn(r, New(7))} }},
		{"NormalizeL1", func(r Runner) []*Tensor { return []*Tensor{NormalizeL1On(r, vec), NormalizeL1On(r, New(7))} }},
		{"MatMul/naive", func(r Runner) []*Tensor { return []*Tensor{MatMulKernelOn(r, KernelNaive, mat, rhs)} }},
		{"MatMul/tiled", func(r Runner) []*Tensor { return []*Tensor{MatMulKernelOn(r, KernelTiled, mat, rhs)} }},
		{"MatMul/k=0", func(r Runner) []*Tensor { return []*Tensor{MatMulKernelOn(r, KernelTiled, New(5, 0), New(0, 6))} }},
		{"MatVec", func(r Runner) []*Tensor { return []*Tensor{MatVecOn(r, mat, vec)} }},
		{"MatVecs/naive", func(r Runner) []*Tensor { return MatVecsOn(r, KernelNaive, mat, queries) }},
		{"MatVecs/tiled", func(r Runner) []*Tensor { return MatVecsOn(r, KernelTiled, mat, queries) }},
		{"Conv2D/naive", func(r Runner) []*Tensor { return []*Tensor{Conv2DKernelOn(r, KernelNaive, img, wts, bias, 1, 1)} }},
		{"Conv2D/tiled", func(r Runner) []*Tensor { return []*Tensor{Conv2DKernelOn(r, KernelTiled, img, wts, bias, 1, 1)} }},
		{"Conv2D/tiled-stride2", func(r Runner) []*Tensor { return []*Tensor{Conv2DKernelOn(r, KernelTiled, img, wts, nil, 2, 0)} }},
		{"MaxPool2D", func(r Runner) []*Tensor { return []*Tensor{MaxPool2DOn(r, img, 2, 2)} }},
		{"GlobalAvgPool2D", func(r Runner) []*Tensor { return []*Tensor{GlobalAvgPool2DOn(r, img)} }},
		{"CircularConv/direct", func(r Runner) []*Tensor { return []*Tensor{CircularConvOn(r, v48a, v48b)} }},
		{"CircularConv/fft", func(r Runner) []*Tensor { return []*Tensor{CircularConvOn(r, v128a, v128b)} }},
		{"Transpose", func(r Runner) []*Tensor { return []*Tensor{TransposeOn(r, mat)} }},
		{"Permute", func(r Runner) []*Tensor { return []*Tensor{PermuteOn(r, m3, 2, 0, 1)} }},
		{"Concat", func(r Runner) []*Tensor { return []*Tensor{ConcatOn(r, 1, m3, m3), ConcatOn(r, 0, mat, mat)} }},
		{"Stack", func(r Runner) []*Tensor { return []*Tensor{StackOn(r, vec, vec, vec)} }},
		{"Slice", func(r Runner) []*Tensor { return []*Tensor{SliceOn(r, mat, 2, 7)} }},
		{"SliceAxis", func(r Runner) []*Tensor { return []*Tensor{SliceAxisOn(r, m3, 1, 1, 3)} }},
		{"Gather", func(r Runner) []*Tensor { return []*Tensor{GatherOn(r, mat, []int{4, 0, 4, 8})} }},
		{"MaskedSelect", func(r Runner) []*Tensor {
			return []*Tensor{MaskedSelectOn(r, mat, mask), MaskedSelectOn(r, mat, New(9, 13))}
		}},
		{"Roll", func(r Runner) []*Tensor { return []*Tensor{RollOn(r, vec, -5)} }},
		{"Copy", func(r Runner) []*Tensor { return []*Tensor{CopyOn(r, m3)} }},
	}
	for _, k := range kernels {
		p := &poisonRunner{}
		got, want := k.run(p), k.run(Serial)
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs, want %d", k.name, len(got), len(want))
		}
		for i := range want {
			sameBits(t, k.name, got[i], want[i])
		}
	}
}
