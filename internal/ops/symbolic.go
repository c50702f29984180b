package ops

import (
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// CircularConv records an instrumented circular convolution — the VSA
// binding primitive of NVSA and PrAE.
func (e *Engine) CircularConv(a, b *tensor.Tensor) *tensor.Tensor {
	n := a.Dim(0)
	flops := tensor.FlopsCircularConvDirect(n)
	if n >= 64 && n&(n-1) == 0 {
		flops = tensor.FlopsCircularConvFFT(n)
	}
	return one(e.record(op{
		name:     "CircularConv",
		kernel:   "circular_conv",
		category: trace.VectorEltwise,
		flops:    flops,
		bytes:    tensor.BytesCircularConv(n),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.CircularConvOn(e.be, a, b)} }))
}

// Roll records an instrumented circular shift — the VSA permutation
// primitive (and the NLM tensor-permutation building block).
func (e *Engine) Roll(a *tensor.Tensor, k int) *tensor.Tensor {
	return one(e.record(op{
		name:     "Roll",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.RollOn(e.be, a, k)} }))
}

// Logic records a symbolic "Others"-category operator (fuzzy logic
// evaluation, rule application, search step). flops and bytes are supplied
// by the caller's analytic model; inputs/outputs are optional for
// dependency tracking.
func (e *Engine) Logic(name string, flops, bytes int64, inputs []*tensor.Tensor, run func() []*tensor.Tensor) []*tensor.Tensor {
	return e.record(op{
		name:     name,
		kernel:   "logic",
		category: trace.Other,
		flops:    flops,
		bytes:    bytes,
		inputs:   inputs,
	}, run)
}
