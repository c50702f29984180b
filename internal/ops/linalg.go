package ops

import (
	"time"

	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// MatMul records an instrumented GEMM (kernel class "sgemm_nn").
func (e *Engine) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	return one(e.record(op{
		name:     "MatMul",
		kernel:   "sgemm_nn",
		category: trace.MatMul,
		flops:    tensor.FlopsMatMul(m, k, n),
		bytes:    tensor.BytesMatMul(m, k, n),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.MatMulOn(e.be, a, b)} }))
}

// MatMulBatch records a GEMM whose left operand stacks `batch` row blocks
// sharing the right operand (the serving-batch layout: one weight matrix,
// n items). It executes the same folded (batch·m)×k × k×n kernel as
// MatMul, but accounts the shared operand's traffic once per item — under
// replica semantics every item reads the weights — so the recorded cost
// is exactly batch× the per-item GEMM and the trace splits uniformly.
// With batch 1 it records exactly what MatMul records.
func (e *Engine) MatMulBatch(a, b *tensor.Tensor, batch int) *tensor.Tensor {
	m, k, n := a.Dim(0)/batch, a.Dim(1), b.Dim(1)
	return one(e.record(op{
		name:     "MatMul",
		kernel:   "sgemm_nn",
		category: trace.MatMul,
		flops:    int64(batch) * tensor.FlopsMatMul(m, k, n),
		bytes:    int64(batch) * tensor.BytesMatMul(m, k, n),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.MatMulOn(e.be, a, b)} }))
}

// matVecOp describes one GEMV of a (m×k) with x.
func matVecOp(a, x *tensor.Tensor) op {
	m, k := a.Dim(0), a.Dim(1)
	return op{
		name:     "MatVec",
		kernel:   "sgemv",
		category: trace.MatMul,
		flops:    tensor.FlopsMatMul(m, k, 1),
		bytes:    tensor.BytesMatMul(m, k, 1),
		inputs:   []*tensor.Tensor{a, x},
	}
}

// MatVec records an instrumented GEMV.
func (e *Engine) MatVec(a, x *tensor.Tensor) *tensor.Tensor {
	return one(e.record(matVecOp(a, x), func() []*tensor.Tensor { return []*tensor.Tensor{tensor.MatVecOn(e.be, a, x)} }))
}

// MatVecs runs independent GEMV queries against one matrix (cleanup
// queries against a codebook) as a single batched kernel, so the matrix
// streams once per batch instead of once per query (tensor.MatVecsOn;
// output j is bit-identical to MatVec(a, xs[j])). The trace still records
// one sgemv event per query, each exactly what MatVec(a, xs[j]) records —
// shapes, costs, inputs, output, sparsity, replica amplification — so the
// characterization and the device projections see len(xs) GEMVs that each
// read the whole matrix; only the host ran them as a batch. The one
// measured duration is split evenly across the events, which start back
// to back and sum to it.
func (e *Engine) MatVecs(a *tensor.Tensor, xs []*tensor.Tensor) []*tensor.Tensor {
	start, dur, outs := e.timed("sgemv", func() []*tensor.Tensor { return tensor.MatVecsOn(e.be, tensor.KernelAuto, a, xs) })
	n := time.Duration(len(xs))
	for j, x := range xs {
		lo, hi := dur*time.Duration(j)/n, dur*time.Duration(j+1)/n
		e.emit(matVecOp(a, x), start.Add(lo), hi-lo, outs[j:j+1])
	}
	return outs
}

// Conv2DBatch records a convolution (kernel "conv2d") over `batch` stacked
// item blocks sharing one kernel tensor. Like MatMulBatch, it runs the
// plain folded kernel but accounts the shared weight (and bias) traffic
// per item, so the event is exactly batch× the per-item convolution.
func (e *Engine) Conv2DBatch(in, w, bias *tensor.Tensor, stride, pad, batch int) *tensor.Tensor {
	n, cin, h, wd := in.Dim(0)/batch, in.Dim(1), in.Dim(2), in.Dim(3)
	cout, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	hout := (h+2*pad-kh)/stride + 1
	wout := (wd+2*pad-kw)/stride + 1
	return one(e.record(op{
		name:     "Conv2D",
		kernel:   "conv2d",
		category: trace.Convolution,
		flops:    int64(batch) * tensor.FlopsConv2D(n, cin, cout, hout, wout, kh, kw),
		bytes:    int64(batch) * tensor.BytesConv2D(n, cin, h, wd, cout, hout, wout, kh, kw),
		inputs:   []*tensor.Tensor{in, w, bias},
	}, func() []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Conv2DKernelOn(e.be, tensor.KernelAuto, in, w, bias, stride, pad)}
	}))
}

// MaxPool2D records an instrumented max pooling.
func (e *Engine) MaxPool2D(in *tensor.Tensor, k, s int) *tensor.Tensor {
	return one(e.record(op{
		name:     "MaxPool2D",
		kernel:   "pool",
		category: trace.VectorEltwise,
		flops:    int64(in.Size()),
		bytes:    tensor.BytesEltwiseUnary(in.Size()),
		inputs:   []*tensor.Tensor{in},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.MaxPool2DOn(e.be, in, k, s)} }))
}

// GlobalAvgPool2D records an instrumented global average pooling.
func (e *Engine) GlobalAvgPool2D(in *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "GlobalAvgPool2D",
		kernel:   "pool",
		category: trace.VectorEltwise,
		flops:    int64(in.Size()),
		bytes:    tensor.BytesEltwiseUnary(in.Size()),
		inputs:   []*tensor.Tensor{in},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.GlobalAvgPool2DOn(e.be, in)} }))
}
