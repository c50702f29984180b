package autograd

import (
	"testing"

	"github.com/neurosym/nsbench/internal/tensor"
)

// numericGrad estimates d out / d param[idx] with central differences.
func numericGrad(param *tensor.Tensor, idx int, f func() float32) float32 {
	const h = 1e-3
	orig := param.Data()[idx]
	param.Data()[idx] = orig + h
	up := f()
	param.Data()[idx] = orig - h
	down := f()
	param.Data()[idx] = orig
	return (up - down) / (2 * h)
}

// mean reduces v to the scalar mean of its elements.
func mean(v *Var) *Var { return MulScalar(Sum(v), 1/float32(v.Value.Size())) }

// checkGrads verifies the analytic gradient of every element of param
// against finite differences of the scalar-producing forward pass.
func checkGrads(t *testing.T, param *Var, forward func() *Var, tol float32) {
	t.Helper()
	out := forward()
	out.Backward()
	// Snapshot: re-running forward() inside the numeric loop clears grads.
	analytic := append([]float32(nil), param.Grad.Data()...)
	for i := range param.Value.Data() {
		want := numericGrad(param.Value, i, func() float32 { return forward().Value.Item() })
		got := analytic[i]
		d := got - want
		if d > tol || d < -tol {
			t.Fatalf("grad[%d] = %v, numeric %v", i, got, want)
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	g := tensor.NewRNG(1)
	a := NewVar(g.Normal(0, 1, 3, 4), true)
	b := NewVar(g.Normal(0, 1, 4, 2), true)
	forward := func() *Var {
		a.ZeroGrad()
		b.ZeroGrad()
		return mean(MatMul(a, b))
	}
	checkGrads(t, a, forward, 1e-2)
	checkGrads(t, b, forward, 1e-2)
}

func TestElementwiseGrads(t *testing.T) {
	g := tensor.NewRNG(2)
	x := NewVar(g.Normal(0, 1, 10), true)
	cases := map[string]func() *Var{
		"add":     func() *Var { x.ZeroGrad(); return mean(Add(x, Const(tensor.Ones(10)))) },
		"sub":     func() *Var { x.ZeroGrad(); return mean(Sub(Const(tensor.Ones(10)), x)) },
		"mul":     func() *Var { x.ZeroGrad(); return mean(Mul(x, x)) },
		"scalar":  func() *Var { x.ZeroGrad(); return mean(MulScalar(x, 3)) },
		"sigmoid": func() *Var { x.ZeroGrad(); return mean(Sigmoid(x)) },
		"square":  func() *Var { x.ZeroGrad(); return mean(Square(x)) },
		"sum":     func() *Var { x.ZeroGrad(); return MulScalar(Sum(x), 0.1) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) { checkGrads(t, x, f, 2e-2) })
	}
}

func TestReLUAndClampGrads(t *testing.T) {
	// Values away from the kinks so finite differences are valid.
	x := NewVar(tensor.FromSlice([]float32{-1.5, -0.4, 0.3, 0.7, 1.8}, 5), true)
	relu := func() *Var { x.ZeroGrad(); return mean(ReLU(x)) }
	checkGrads(t, x, relu, 1e-2)
}

func TestBiasGrad(t *testing.T) {
	g := tensor.NewRNG(3)
	a := NewVar(g.Normal(0, 1, 4, 3), true)
	bias := NewVar(g.Normal(0, 1, 3), true)
	forward := func() *Var {
		a.ZeroGrad()
		bias.ZeroGrad()
		return mean(AddRowBias(a, bias))
	}
	checkGrads(t, bias, forward, 1e-2)
	checkGrads(t, a, forward, 1e-2)
}

func TestLossGrads(t *testing.T) {
	g := tensor.NewRNG(4)
	x := NewVar(g.Uniform(0.2, 0.8, 6), true)
	target := tensor.FromSlice([]float32{1, 0, 1, 0, 1, 0}, 6)
	bce := func() *Var { x.ZeroGrad(); return BCE(x, target) }
	checkGrads(t, x, bce, 5e-2)
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVar(tensor.Ones(3), true).Backward()
}

func TestMLPTrainingConverges(t *testing.T) {
	// Fit XOR with a tiny MLP: a full end-to-end autograd check.
	g := tensor.NewRNG(5)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	y := tensor.FromSlice([]float32{0, 1, 1, 0}, 4, 1)
	w1 := NewVar(g.Normal(0, 1, 2, 8), true)
	b1 := NewVar(tensor.Zeros(8), true)
	w2 := NewVar(g.Normal(0, 1, 8, 1), true)
	b2 := NewVar(tensor.Zeros(1), true)
	opt := &SGD{Params: []*Var{w1, b1, w2, b2}, LR: 0.5}

	forward := func() *Var {
		h := Sigmoid(AddRowBias(MatMul(Const(x), w1), b1))
		return Sigmoid(AddRowBias(MatMul(h, w2), b2))
	}
	var first, last float32
	for epoch := 0; epoch < 1500; epoch++ {
		loss := BCE(forward(), y)
		if epoch == 0 {
			first = loss.Value.Item()
		}
		last = loss.Value.Item()
		loss.Backward()
		opt.Step()
	}
	if last > first/4 {
		t.Fatalf("training failed to converge: first=%v last=%v", first, last)
	}
	pred := forward().Value
	for i := 0; i < 4; i++ {
		want := y.At(i, 0)
		got := pred.At(i, 0)
		if (want == 1 && got < 0.6) || (want == 0 && got > 0.4) {
			t.Fatalf("XOR sample %d predicted %v, want %v", i, got, want)
		}
	}
}

func TestDiamondGraphAccumulates(t *testing.T) {
	// y = x·x + x: gradient 2x + 1 — requires accumulation across paths.
	x := NewVar(tensor.FromSlice([]float32{3}, 1), true)
	y := Sum(Add(Mul(x, x), x))
	y.Backward()
	if g := x.Grad.At(0); g < 6.99 || g > 7.01 {
		t.Fatalf("diamond grad = %v, want 7", g)
	}
}

func TestSGDStepAndZero(t *testing.T) {
	p := NewVar(tensor.FromSlice([]float32{1}, 1), true)
	loss := Sum(Mul(p, p)) // d/dp = 2p = 2
	loss.Backward()
	(&SGD{Params: []*Var{p}, LR: 0.25}).Step()
	if v := p.Value.At(0); v != 0.5 {
		t.Fatalf("after step p = %v, want 0.5", v)
	}
	if p.Grad.At(0) != 0 {
		t.Fatal("Step must clear gradients")
	}
}
