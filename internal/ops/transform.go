package ops

import (
	"github.com/neurosym/nsbench/internal/sparse"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Transpose records an instrumented matrix transpose (data transformation).
func (e *Engine) Transpose(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "Transpose",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.TransposeOn(e.be, a)} }))
}

// Permute records an instrumented axis permutation.
func (e *Engine) Permute(a *tensor.Tensor, perm ...int) *tensor.Tensor {
	return one(e.record(op{
		name:     "Permute",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.PermuteOn(e.be, a, perm...)} }))
}

// Reshape records an instrumented reshape. The data is aliased, so only
// metadata traffic occurs; we log a fixed small byte cost.
func (e *Engine) Reshape(a *tensor.Tensor, shape ...int) *tensor.Tensor {
	return one(e.record(op{
		name:     "Reshape",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    64,
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{a.Reshape(shape...)} }))
}

// ReshapeBatch is Reshape for a tensor carrying batch stacked items: the
// fixed per-item metadata cost is recorded batch times, while the output
// allocation is already batch-scaled by construction.
func (e *Engine) ReshapeBatch(a *tensor.Tensor, batch int, shape ...int) *tensor.Tensor {
	return one(e.record(op{
		name:     "Reshape",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    64 * int64(batch),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{a.Reshape(shape...)} }))
}

// Concat records an instrumented concatenation.
func (e *Engine) Concat(axis int, ts ...*tensor.Tensor) *tensor.Tensor {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	return one(e.record(op{
		name:     "Concat",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(total),
		inputs:   ts,
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.ConcatOn(e.be, axis, ts...)} }))
}

// Stack records an instrumented stack along a new leading axis.
func (e *Engine) Stack(ts ...*tensor.Tensor) *tensor.Tensor {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	return one(e.record(op{
		name:     "Stack",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(total),
		inputs:   ts,
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.StackOn(e.be, ts...)} }))
}

// Slice records an instrumented leading-axis slice.
func (e *Engine) Slice(a *tensor.Tensor, lo, hi int) *tensor.Tensor {
	inner := a.Size() / max(a.Dim(0), 1)
	return one(e.record(op{
		name:     "Slice",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy((hi - lo) * inner),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.SliceOn(e.be, a, lo, hi)} }))
}

// Gather records an instrumented irregular row gather. The byte cost uses
// random-access convention: every gathered row is a strided read.
func (e *Engine) Gather(a *tensor.Tensor, idx []int) *tensor.Tensor {
	return one(e.record(gatherOp(a, len(idx)), func() []*tensor.Tensor { return []*tensor.Tensor{tensor.GatherOn(e.be, a, idx)} }))
}

// gatherOp describes a gather of rows rows of a: the copied rows plus one
// 4-byte index read per row.
func gatherOp(a *tensor.Tensor, rows int) op {
	inner := a.Size() / max(a.Dim(0), 1)
	return op{
		name:     "Gather",
		kernel:   "gather",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(rows*inner) + int64(rows)*4,
		inputs:   []*tensor.Tensor{a},
	}
}

// ExpandOuter expands vectors a and b into the flat operands of their
// outer product, ea[i*lb+j] = a[i] and eb[i*lb+j] = b[j], with one
// index-free kernel run (tensor.OuterExpandOn). It records exactly the two
// events that gathering a and b with the equivalent index vectors records:
// the modelled kernel is still a gather that reads its indices, so FLOPs,
// bytes (index bytes included), alloc, inputs and measured sparsity are
// Gather's. The measured duration is split evenly across the two events.
// Each event's sparsity comes from its operand's zero count, since ea
// holds every element of a lb times and eb every element of b la times:
// the same ratio a scan of the output gives, without the scan.
//
// ea and eb are drawn from the backend's scratch pool; hand them back with
// Release once nothing reads them.
func (e *Engine) ExpandOuter(a, b *tensor.Tensor) (ea, eb *tensor.Tensor) {
	la, lb := a.Size(), b.Size()
	n := la * lb
	start, dur, outs := e.timed("gather", func() []*tensor.Tensor {
		ea = tensor.FromSlice(e.be.Scratch32(n), n)
		eb = tensor.FromSlice(e.be.Scratch32(n), n)
		tensor.OuterExpandOn(e.be, ea, eb, a, b)
		return []*tensor.Tensor{ea, eb}
	})
	oa, ob := gatherOp(a, n), gatherOp(b, n)
	oa.repeatOf, oa.repeatN = a, lb
	ob.repeatOf, ob.repeatN = b, la
	half := dur / 2
	e.emit(oa, start, half, outs[:1])
	e.emit(ob, start.Add(half), dur-half, outs[1:])
	return ea, eb
}

// Release hands the storage of engine outputs nothing reads any more back
// to the backend's scratch pool before the run ends, where the next
// pooled output of its size class reuses it. It records no event. The
// caller must hold no other reference to the storage, reshaped views
// included. An engine from a Pool leaves storage it did not draw, or
// already returned, alone; a stand-alone engine tracks nothing and hands
// back whatever it is given.
func (e *Engine) Release(ts ...*tensor.Tensor) {
	for _, t := range ts {
		e.kt.Release32(t.Data())
	}
}

// MaskedSelect records an instrumented masked selection.
func (e *Engine) MaskedSelect(a, mask *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "MaskedSelect",
		kernel:   "gather",
		category: trace.DataTransform,
		bytes:    tensor.BytesEltwiseBinary(a.Size()),
		inputs:   []*tensor.Tensor{a, mask},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.MaskedSelectOn(e.be, a, mask)} }))
}

// Copy records an explicit tensor duplication (data movement).
func (e *Engine) Copy(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "Copy",
		kernel:   "memcpy",
		category: trace.DataMovement,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.CopyOn(e.be, a)} }))
}

// HostToDevice records a simulated host→device transfer of a tensor. On the
// measured platform of the paper this traffic dominates data-movement time;
// here it is an explicit data-movement event sized by the tensor.
func (e *Engine) HostToDevice(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "HostToDevice",
		kernel:   "memcpy_h2d",
		category: trace.DataMovement,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.CopyOn(e.be, a)} }))
}

// DeviceToHost records a simulated device→host transfer of a tensor.
func (e *Engine) DeviceToHost(a *tensor.Tensor) *tensor.Tensor {
	return one(e.record(op{
		name:     "DeviceToHost",
		kernel:   "memcpy_d2h",
		category: trace.DataMovement,
		bytes:    tensor.BytesCopy(a.Size()),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.CopyOn(e.be, a)} }))
}

// SliceAxis records an instrumented materialized slice along any axis.
// It records the same event shape as Slice (the kernel is the same copy),
// with the byte cost of the elements actually moved.
func (e *Engine) SliceAxis(a *tensor.Tensor, axis, lo, hi int) *tensor.Tensor {
	count := a.Size() / max(a.Dim(axis), 1) * (hi - lo)
	return one(e.record(op{
		name:     "Slice",
		kernel:   "transform",
		category: trace.DataTransform,
		bytes:    tensor.BytesCopy(count),
		inputs:   []*tensor.Tensor{a},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{tensor.SliceAxisOn(e.be, a, axis, lo, hi)} }))
}

// SpMMBatch records one instrumented batched SpMM: batch sparse matrices
// sharing dimensions, each multiplying its row block of b (see
// sparse.SpMMBatchOn).
func (e *Engine) SpMMBatch(mats []*sparse.CSR, b *tensor.Tensor) *tensor.Tensor {
	var nnz int64
	var bytes int64
	w := b.Dim(1)
	for _, m := range mats {
		nnz += int64(m.NNZ())
		bytes += sparse.BytesSpMM(m.NNZ(), m.Rows, w)
	}
	return one(e.record(op{
		name:     "SpMM",
		kernel:   "spmm",
		category: trace.MatMul,
		flops:    2 * nnz * int64(w),
		bytes:    bytes,
		inputs:   []*tensor.Tensor{b},
	}, func() []*tensor.Tensor { return []*tensor.Tensor{sparse.SpMMBatchOn(e.be, mats, b)} }))
}

// SDDMMBatch records one instrumented batched SDDMM over a shared
// sparsity pattern (see sparse.SDDMMBatchOn).
func (e *Engine) SDDMMBatch(pattern *sparse.CSR, a, b *tensor.Tensor, batch int) []*sparse.CSR {
	var out []*sparse.CSR
	e.record(op{
		name:     "SDDMM",
		kernel:   "sddmm",
		category: trace.MatMul,
		flops:    int64(batch) * 2 * int64(pattern.NNZ()) * int64(a.Dim(1)),
		bytes:    int64(batch) * sparse.BytesSpMM(pattern.NNZ(), pattern.Rows, a.Dim(1)),
		inputs:   []*tensor.Tensor{a, b},
	}, func() []*tensor.Tensor {
		out = sparse.SDDMMBatchOn(e.be, pattern, a, b, batch)
		return nil
	})
	return out
}
