package tensor

import (
	"fmt"
	"math"
)

// grainEltwise is the chunk grain for element-wise maps: a few flops per
// element means chunks must span thousands of elements to be worth a
// dispatch.
const grainEltwise = 8192

// binOut checks a binary operator's operands and draws its output from r.
// Every element-wise loop writes each output element, so the output is
// not zeroed.
func binOut(r Runner, name string, a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
	return emptyOn(r, a.shape...)
}

// The element-wise operators below each run their own loop, chunked on r
// over the flat index space: no per-element call through a function
// value. Every element is independent, so chunked execution is trivially
// bit-identical to serial.

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor { return AddOn(Serial, a, b) }

// AddOn is Add dispatched on r.
func AddOn(r Runner, a, b *Tensor) *Tensor {
	out := binOut(r, "Add", a, b)
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + bd[i]
		}
	})
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor { return SubOn(Serial, a, b) }

// SubOn is Sub dispatched on r.
func SubOn(r Runner, a, b *Tensor) *Tensor {
	out := binOut(r, "Sub", a, b)
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] - bd[i]
		}
	})
	return out
}

// Mul returns the Hadamard (element-wise) product a ⊙ b.
func Mul(a, b *Tensor) *Tensor { return MulOn(Serial, a, b) }

// MulOn is Mul dispatched on r.
func MulOn(r Runner, a, b *Tensor) *Tensor { return MulToOn(r, binOut(r, "Mul", a, b), a, b) }

// MulToOn writes a * b element-wise into out and returns it. out must have
// a's element count and may alias a or b: element i is read before it is
// written.
func MulToOn(r Runner, out, a, b *Tensor) *Tensor {
	if !a.SameShape(b) || out.Size() != a.Size() {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v into %v", a.shape, b.shape, out.shape))
	}
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * bd[i]
		}
	})
	return out
}

// Minimum returns the element-wise minimum of a and b: a[i] where
// a[i] < b[i], else b[i] (so a NaN in either operand yields b[i]).
func Minimum(a, b *Tensor) *Tensor { return MinimumOn(Serial, a, b) }

// MinimumOn is Minimum dispatched on r.
func MinimumOn(r Runner, a, b *Tensor) *Tensor {
	out := binOut(r, "Minimum", a, b)
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x, y := ad[i], bd[i]; x < y {
				od[i] = x
			} else {
				od[i] = y
			}
		}
	})
	return out
}

// Maximum returns the element-wise maximum of a and b: a[i] where
// a[i] > b[i], else b[i].
func Maximum(a, b *Tensor) *Tensor { return MaximumOn(Serial, a, b) }

// MaximumOn is Maximum dispatched on r.
func MaximumOn(r Runner, a, b *Tensor) *Tensor {
	out := binOut(r, "Maximum", a, b)
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x, y := ad[i], bd[i]; x > y {
				od[i] = x
			} else {
				od[i] = y
			}
		}
	})
	return out
}

// Greater returns 1 where a > b and 0 elsewhere.
func Greater(a, b *Tensor) *Tensor { return GreaterOn(Serial, a, b) }

// GreaterOn is Greater dispatched on r.
func GreaterOn(r Runner, a, b *Tensor) *Tensor {
	out := binOut(r, "Greater", a, b)
	ad, bd, od := a.data, b.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ad[i] > bd[i] {
				od[i] = 1
			} else {
				od[i] = 0
			}
		}
	})
	return out
}

// AddScalar returns a + s element-wise.
func AddScalar(a *Tensor, s float32) *Tensor { return AddScalarOn(Serial, a, s) }

// AddScalarOn is AddScalar dispatched on r.
func AddScalarOn(r Runner, a *Tensor, s float32) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + s
		}
	})
	return out
}

// MulScalar returns a * s element-wise.
func MulScalar(a *Tensor, s float32) *Tensor { return MulScalarOn(Serial, a, s) }

// MulScalarOn is MulScalar dispatched on r.
func MulScalarOn(r Runner, a *Tensor, s float32) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * s
		}
	})
	return out
}

// Neg returns -a element-wise.
func Neg(a *Tensor) *Tensor { return NegOn(Serial, a) }

// NegOn is Neg dispatched on r.
func NegOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = -ad[i]
		}
	})
	return out
}

// Abs returns |a| element-wise (-x for x < 0, so -0 and NaN pass through).
func Abs(a *Tensor) *Tensor { return AbsOn(Serial, a) }

// AbsOn is Abs dispatched on r.
func AbsOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x := ad[i]; x < 0 {
				od[i] = -x
			} else {
				od[i] = x
			}
		}
	})
	return out
}

// Sign returns the sign of each element in {-1, 0, +1} (0 for ±0 and NaN).
func Sign(a *Tensor) *Tensor { return SignOn(Serial, a) }

// SignOn is Sign dispatched on r.
func SignOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			switch x := ad[i]; {
			case x > 0:
				od[i] = 1
			case x < 0:
				od[i] = -1
			default:
				od[i] = 0
			}
		}
	})
	return out
}

// Clamp limits every element to the range [lo, hi].
func Clamp(a *Tensor, lo, hi float32) *Tensor { return ClampOn(Serial, a, lo, hi) }

// ClampOn is Clamp dispatched on r.
func ClampOn(r Runner, a *Tensor, lo, hi float32) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(from, to int) {
		for i := from; i < to; i++ {
			switch x := ad[i]; {
			case x < lo:
				od[i] = lo
			case x > hi:
				od[i] = hi
			default:
				od[i] = x
			}
		}
	})
	return out
}

// ReLU returns max(0, a) element-wise (0 for -0 and NaN).
func ReLU(a *Tensor) *Tensor { return ReLUOn(Serial, a) }

// ReLUOn is ReLU dispatched on r.
func ReLUOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x := ad[i]; x > 0 {
				od[i] = x
			} else {
				od[i] = 0
			}
		}
	})
	return out
}

// Sigmoid returns 1/(1+e^-a) element-wise, evaluated in float64.
func Sigmoid(a *Tensor) *Tensor { return SigmoidOn(Serial, a) }

// SigmoidOn is Sigmoid dispatched on r.
func SigmoidOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = float32(1 / (1 + math.Exp(-float64(ad[i]))))
		}
	})
	return out
}

// Tanh returns the hyperbolic tangent element-wise, evaluated in float64.
func Tanh(a *Tensor) *Tensor { return TanhOn(Serial, a) }

// TanhOn is Tanh dispatched on r.
func TanhOn(r Runner, a *Tensor) *Tensor {
	out := emptyOn(r, a.shape...)
	ad, od := a.data, out.data
	r.For(len(od), grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = float32(math.Tanh(float64(ad[i])))
		}
	})
	return out
}

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
