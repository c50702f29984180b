package tensor

import (
	"fmt"
	"math"
)

// grainEltwise is the chunk grain for element-wise maps: a few flops per
// element means chunks must span thousands of elements to be worth a
// dispatch.
const grainEltwise = 8192

// binOpOn applies f element-wise to a and b, which must share a shape,
// chunked over the flat index space of r. Every element is independent, so
// chunked execution is trivially bit-identical to serial.
func binOpOn(r Runner, name string, a, b *Tensor, f func(x, y float32) float32) *Tensor {
	return binOpToOn(r, name, New(a.shape...), a, b, f)
}

// binOpToOn is binOpOn writing into out, which must have a's element
// count and may alias a or b: element i is read before it is written.
func binOpToOn(r Runner, name string, out, a, b *Tensor, f func(x, y float32) float32) *Tensor {
	if !a.SameShape(b) || out.Size() != a.Size() {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v into %v", name, a.shape, b.shape, out.shape))
	}
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(ad[i], bd[i])
		}
	})
	return out
}

// binOp is binOpOn on the inline runner.
func binOp(name string, a, b *Tensor, f func(x, y float32) float32) *Tensor {
	return binOpOn(Serial, name, a, b, f)
}

// unOpOn applies f element-wise to a, chunked on r.
func unOpOn(r Runner, a *Tensor, f func(x float32) float32) *Tensor {
	out := New(a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(ad[i])
		}
	})
	return out
}

// unOp is unOpOn on the inline runner.
func unOp(a *Tensor, f func(x float32) float32) *Tensor { return unOpOn(Serial, a, f) }

func addf(x, y float32) float32 { return x + y }
func subf(x, y float32) float32 { return x - y }
func mulf(x, y float32) float32 { return x * y }
func divf(x, y float32) float32 { return x / y }

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor { return binOp("Add", a, b, addf) }

// AddOn is Add dispatched on r.
func AddOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Add", a, b, addf) }

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor { return binOp("Sub", a, b, subf) }

// SubOn is Sub dispatched on r.
func SubOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Sub", a, b, subf) }

// Mul returns the Hadamard (element-wise) product a ⊙ b.
func Mul(a, b *Tensor) *Tensor { return binOp("Mul", a, b, mulf) }

// MulOn is Mul dispatched on r.
func MulOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Mul", a, b, mulf) }

// MulToOn writes a * b element-wise into out and returns it. out must have
// a's element count and may alias a or b.
func MulToOn(r Runner, out, a, b *Tensor) *Tensor { return binOpToOn(r, "Mul", out, a, b, mulf) }

// Div returns a / b element-wise. Division by zero follows IEEE semantics.
func Div(a, b *Tensor) *Tensor { return binOp("Div", a, b, divf) }

// DivOn is Div dispatched on r.
func DivOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Div", a, b, divf) }

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

// Minimum returns the element-wise minimum of a and b.
func Minimum(a, b *Tensor) *Tensor { return binOp("Minimum", a, b, minf) }

// MinimumOn is Minimum dispatched on r.
func MinimumOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Minimum", a, b, minf) }

// Maximum returns the element-wise maximum of a and b.
func Maximum(a, b *Tensor) *Tensor { return binOp("Maximum", a, b, maxf) }

// MaximumOn is Maximum dispatched on r.
func MaximumOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Maximum", a, b, maxf) }

// AddScalar returns a + s element-wise.
func AddScalar(a *Tensor, s float32) *Tensor { return AddScalarOn(Serial, a, s) }

// AddScalarOn is AddScalar dispatched on r.
func AddScalarOn(r Runner, a *Tensor, s float32) *Tensor {
	return unOpOn(r, a, func(x float32) float32 { return x + s })
}

// MulScalar returns a * s element-wise.
func MulScalar(a *Tensor, s float32) *Tensor { return MulScalarOn(Serial, a, s) }

// MulScalarOn is MulScalar dispatched on r.
func MulScalarOn(r Runner, a *Tensor, s float32) *Tensor {
	return unOpOn(r, a, func(x float32) float32 { return x * s })
}

func negf(x float32) float32 { return -x }

// Neg returns -a element-wise.
func Neg(a *Tensor) *Tensor { return unOp(a, negf) }

// NegOn is Neg dispatched on r.
func NegOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, negf) }

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// Abs returns |a| element-wise.
func Abs(a *Tensor) *Tensor { return unOp(a, absf) }

// AbsOn is Abs dispatched on r.
func AbsOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, absf) }

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

// Sign returns the sign of each element in {-1, 0, +1}.
func Sign(a *Tensor) *Tensor { return unOp(a, signf) }

// SignOn is Sign dispatched on r.
func SignOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, signf) }

func sqrtf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// Sqrt returns the square root element-wise.
func Sqrt(a *Tensor) *Tensor { return unOp(a, sqrtf) }

// Clamp limits every element to the range [lo, hi].
func Clamp(a *Tensor, lo, hi float32) *Tensor { return ClampOn(Serial, a, lo, hi) }

// ClampOn is Clamp dispatched on r.
func ClampOn(r Runner, a *Tensor, lo, hi float32) *Tensor {
	return unOpOn(r, a, func(x float32) float32 {
		if x < lo {
			return lo
		}
		if x > hi {
			return hi
		}
		return x
	})
}

func reluf(x float32) float32 {
	if x > 0 {
		return x
	}
	return 0
}

// ReLU returns max(0, a) element-wise.
func ReLU(a *Tensor) *Tensor { return unOp(a, reluf) }

// ReLUOn is ReLU dispatched on r.
func ReLUOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, reluf) }

func sigmoidf(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanhf(x float32) float32    { return float32(math.Tanh(float64(x))) }

// Sigmoid returns 1/(1+e^-a) element-wise.
func Sigmoid(a *Tensor) *Tensor { return unOp(a, sigmoidf) }

// SigmoidOn is Sigmoid dispatched on r.
func SigmoidOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, sigmoidf) }

// Tanh returns the hyperbolic tangent element-wise.
func Tanh(a *Tensor) *Tensor { return unOp(a, tanhf) }

// TanhOn is Tanh dispatched on r.
func TanhOn(r Runner, a *Tensor) *Tensor { return unOpOn(r, a, tanhf) }

func greaterf(x, y float32) float32 {
	if x > y {
		return 1
	}
	return 0
}

// Greater returns 1 where a > b and 0 elsewhere.
func Greater(a, b *Tensor) *Tensor { return binOp("Greater", a, b, greaterf) }

// GreaterOn is Greater dispatched on r.
func GreaterOn(r Runner, a, b *Tensor) *Tensor { return binOpOn(r, "Greater", a, b, greaterf) }

// AXPY computes y += alpha*x in place (BLAS level-1 saxpy). It stays
// serial: in-place updates are cheap streaming passes.
func AXPY(alpha float32, x, y *Tensor) {
	if !x.SameShape(y) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %v vs %v", x.shape, y.shape))
	}
	xd, yd := x.data, y.data
	for i := range yd {
		yd[i] += alpha * xd[i]
	}
}

// Dot returns the inner product of two tensors viewed as flat vectors.
// Single-accumulator reductions stay serial: splitting the accumulation
// would reorder float additions and break bit-identity across backends.
func Dot(a, b *Tensor) float32 {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", a.Size(), b.Size()))
	}
	var s float64
	for i, v := range a.data {
		s += float64(v) * float64(b.data[i])
	}
	return float32(s)
}

// CosineSimilarity returns the cosine of the angle between a and b as flat
// vectors, or 0 if either has zero norm.
func CosineSimilarity(a, b *Tensor) float32 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
