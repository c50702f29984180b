package ops

import (
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// binary records a two-operand element-wise operator (kernel class
// "vectorized_elem", matching the NVSA symbolic kernel of Table IV).
func (e *Engine) binary(name string, a, b *tensor.Tensor, f func(r tensor.Runner, a, b *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     name,
		kernel:   "vectorized_elem",
		category: trace.VectorEltwise,
		flops:    tensor.FlopsEltwise(a.Size(), 1),
		bytes:    tensor.BytesEltwiseBinary(a.Size()),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{f(e.be, a, b)} }))
}

// unary records a one-operand element-wise operator (kernel class
// "elementwise").
func (e *Engine) unary(name string, a *tensor.Tensor, flopsPerElem int, f func(r tensor.Runner, a *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     name,
		kernel:   "elementwise",
		category: trace.VectorEltwise,
		flops:    tensor.FlopsEltwise(a.Size(), flopsPerElem),
		bytes:    tensor.BytesEltwiseUnary(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{f(e.be, a)} }))
}

// Add records an instrumented element-wise addition.
func (e *Engine) Add(a, b *tensor.Tensor) *tensor.Tensor { return e.binary("Add", a, b, tensor.AddOn) }

// Sub records an instrumented element-wise subtraction.
func (e *Engine) Sub(a, b *tensor.Tensor) *tensor.Tensor { return e.binary("Sub", a, b, tensor.SubOn) }

// Mul records an instrumented Hadamard product.
func (e *Engine) Mul(a, b *tensor.Tensor) *tensor.Tensor { return e.binary("Mul", a, b, tensor.MulOn) }

// MulInPlace records exactly the event Mul(a, b) records but writes the
// product over a's storage instead of allocating. The result is a new
// value in the dataflow graph (fresh ID) that owns a's storage, so a must
// not be read afterwards; a pooled a (see ExpandOuter) hands its buffer on.
func (e *Engine) MulInPlace(a, b *tensor.Tensor) *tensor.Tensor {
	return e.binary("Mul", a, b, func(r tensor.Runner, a, b *tensor.Tensor) *tensor.Tensor {
		return tensor.MulToOn(r, tensor.FromSlice(a.Data(), a.Shape()...), a, b)
	})
}

// Minimum records an instrumented element-wise minimum.
func (e *Engine) Minimum(a, b *tensor.Tensor) *tensor.Tensor {
	return e.binary("Minimum", a, b, tensor.MinimumOn)
}

// Maximum records an instrumented element-wise maximum.
func (e *Engine) Maximum(a, b *tensor.Tensor) *tensor.Tensor {
	return e.binary("Maximum", a, b, tensor.MaximumOn)
}

// AddScalar records an instrumented scalar addition.
func (e *Engine) AddScalar(a *tensor.Tensor, s float32) *tensor.Tensor {
	return e.unary("AddScalar", a, 1, func(r tensor.Runner, t *tensor.Tensor) *tensor.Tensor { return tensor.AddScalarOn(r, t, s) })
}

// MulScalar records an instrumented scalar multiplication.
func (e *Engine) MulScalar(a *tensor.Tensor, s float32) *tensor.Tensor {
	return e.unary("MulScalar", a, 1, func(r tensor.Runner, t *tensor.Tensor) *tensor.Tensor { return tensor.MulScalarOn(r, t, s) })
}

// Neg records an instrumented negation.
func (e *Engine) Neg(a *tensor.Tensor) *tensor.Tensor { return e.unary("Neg", a, 1, tensor.NegOn) }

// Abs records an instrumented absolute value.
func (e *Engine) Abs(a *tensor.Tensor) *tensor.Tensor { return e.unary("Abs", a, 1, tensor.AbsOn) }

// Sign records an instrumented sign extraction.
func (e *Engine) Sign(a *tensor.Tensor) *tensor.Tensor { return e.unary("Sign", a, 1, tensor.SignOn) }

// Clamp records an instrumented clamp.
func (e *Engine) Clamp(a *tensor.Tensor, lo, hi float32) *tensor.Tensor {
	return e.unary("Clamp", a, 2, func(r tensor.Runner, t *tensor.Tensor) *tensor.Tensor { return tensor.ClampOn(r, t, lo, hi) })
}

// ReLU records an instrumented rectified linear unit (kernel "relu_nn",
// matching the Table-IV neural kernel).
func (e *Engine) ReLU(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "ReLU",
		kernel:   "relu_nn",
		category: trace.VectorEltwise,
		flops:    tensor.FlopsEltwise(a.Size(), 1),
		bytes:    tensor.BytesEltwiseUnary(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.ReLUOn(e.be, a)} }))
}

// Sigmoid records an instrumented sigmoid.
func (e *Engine) Sigmoid(a *tensor.Tensor) *tensor.Tensor {
	return e.unary("Sigmoid", a, 5, tensor.SigmoidOn)
}

// Tanh records an instrumented tanh.
func (e *Engine) Tanh(a *tensor.Tensor) *tensor.Tensor { return e.unary("Tanh", a, 5, tensor.TanhOn) }

// Greater records an instrumented element-wise comparison.
func (e *Engine) Greater(a, b *tensor.Tensor) *tensor.Tensor {
	return e.binary("Greater", a, b, tensor.GreaterOn)
}

// Dot records an instrumented inner product and returns it as a scalar tensor.
func (e *Engine) Dot(a, b *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "Dot",
		kernel:   "vectorized_elem",
		category: trace.VectorEltwise,
		flops:    2 * int64(a.Size()),
		bytes:    tensor.BytesEltwiseBinary(a.Size()),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.Scalar(tensor.Dot(a, b))} }))
}

// Softmax records an instrumented softmax over the last axis.
func (e *Engine) Softmax(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "Softmax",
		kernel:   "softmax",
		category: trace.VectorEltwise,
		flops:    tensor.FlopsSoftmax(a.Size()),
		bytes:    tensor.BytesEltwiseUnary(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.SoftmaxOn(e.be, a)} }))
}

// Normalize records an instrumented L2 normalization.
func (e *Engine) Normalize(a *tensor.Tensor) *tensor.Tensor {
	return e.unary("Normalize", a, 3, tensor.NormalizeOn)
}

// NormalizeL1 records an instrumented L1 normalization.
func (e *Engine) NormalizeL1(a *tensor.Tensor) *tensor.Tensor {
	return e.unary("NormalizeL1", a, 3, tensor.NormalizeL1On)
}

// SumAxis records an instrumented axis reduction.
func (e *Engine) SumAxis(a *tensor.Tensor, axis int) *tensor.Tensor {
	return e.reduce("SumAxis", a, axis, tensor.SumAxisOn)
}

// MeanAxis records an instrumented mean reduction.
func (e *Engine) MeanAxis(a *tensor.Tensor, axis int) *tensor.Tensor {
	return e.reduce("MeanAxis", a, axis, tensor.MeanAxisOn)
}

// MaxAxis records an instrumented max reduction.
func (e *Engine) MaxAxis(a *tensor.Tensor, axis int) *tensor.Tensor {
	return e.reduce("MaxAxis", a, axis, tensor.MaxAxisOn)
}

// MinAxis records an instrumented min reduction.
func (e *Engine) MinAxis(a *tensor.Tensor, axis int) *tensor.Tensor {
	return e.reduce("MinAxis", a, axis, tensor.MinAxisOn)
}

func (e *Engine) reduce(name string, a *tensor.Tensor, axis int, f func(tensor.Runner, *tensor.Tensor, int) *tensor.Tensor) *tensor.Tensor {
	outN := a.Size() / max(a.Dim(axis), 1)
	return one(e.record(op{
		name:     name,
		kernel:   "reduce",
		category: trace.VectorEltwise,
		flops:    tensor.FlopsReduce(a.Size()),
		bytes:    tensor.BytesReduce(a.Size(), outN),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{f(e.be, a, axis)} }))
}
