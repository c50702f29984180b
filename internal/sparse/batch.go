// Batched sparse kernels: the SDDMM / SpMM pair with a leading batch
// dimension, chunked over a Runner like the dense kernels in
// internal/tensor. The batch is laid out as n stacked row blocks in the
// dense operands — item i owns rows [i*Rows, (i+1)*Rows) — while the
// sparsity pattern is shared across items, which is exactly the serving
// case: one knowledge graph, many concurrent queries.
package sparse

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/tensor"
)

// minChunkFlops mirrors the dense-kernel chunking floor: chunks below it
// cost more to dispatch than to compute.
const minChunkFlops = 32 * 1024

// grainFor converts a per-row flop estimate into a chunk grain.
func grainFor(perRowFlops int64) int {
	if perRowFlops <= 0 {
		perRowFlops = 1
	}
	g := int64(minChunkFlops) / perRowFlops
	if g < 1 {
		return 1
	}
	return int(g)
}

// SDDMMBatchOn computes batch independent SDDMMs sharing one sparsity
// pattern. a is (batch*pattern.Rows)×k and b is (batch*pattern.Cols)×k;
// the result for item i samples A_i·B_iᵀ at the pattern's stored
// positions. All outputs alias the pattern's RowPtr/Col slices (they are
// read-only); each row is accumulated in the same order as CSR.SDDMM, so
// item results are bit-identical to solo calls.
func SDDMMBatchOn(r tensor.Runner, pattern *CSR, a, b *tensor.Tensor, batch int) []*CSR {
	if batch < 1 {
		panic(fmt.Sprintf("sparse: SDDMMBatchOn batch %d", batch))
	}
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != batch*pattern.Rows || b.Dim(0) != batch*pattern.Cols || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("sparse: SDDMMBatchOn shape mismatch pattern %dx%d (batch %d), a %v, b %v",
			pattern.Rows, pattern.Cols, batch, a.Shape(), b.Shape()))
	}
	k := a.Dim(1)
	rowPtr := append([]int(nil), pattern.RowPtr...)
	col := append([]int(nil), pattern.Col...)
	outs := make([]*CSR, batch)
	for i := range outs {
		outs[i] = &CSR{
			Rows:   pattern.Rows,
			Cols:   pattern.Cols,
			RowPtr: rowPtr,
			Col:    col,
			Val:    make([]float32, len(pattern.Val)),
		}
	}
	ad, bd := a.Data(), b.Data()
	rows := pattern.Rows
	nnzPerRow := int64(1)
	if rows > 0 {
		nnzPerRow = int64(pattern.NNZ())/int64(rows) + 1
	}
	r.For(batch*rows, grainFor(2*nnzPerRow*int64(k)), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			item, row := idx/rows, idx%rows
			out := outs[item]
			arow := ad[(item*rows+row)*k : (item*rows+row+1)*k]
			for p := pattern.RowPtr[row]; p < pattern.RowPtr[row+1]; p++ {
				bbase := (item*pattern.Cols + pattern.Col[p]) * k
				brow := bd[bbase : bbase+k]
				var s float64
				for i := range arow {
					s += float64(arow[i]) * float64(brow[i])
				}
				out.Val[p] = pattern.Val[p] * float32(s)
			}
		}
	})
	return outs
}

// SpMMBatchOn multiplies each of the batch sparse matrices (which must
// share dimensions) with its row block of the dense operand: b is
// (batch*Cols)×w and the result is (batch*Rows)×w, item i occupying rows
// [i*Rows, (i+1)*Rows). Per-row accumulation order matches CSR.SpMM.
func SpMMBatchOn(r tensor.Runner, mats []*CSR, b *tensor.Tensor) *tensor.Tensor {
	batch := len(mats)
	if batch == 0 {
		panic("sparse: SpMMBatchOn of no matrices")
	}
	rows, cols := mats[0].Rows, mats[0].Cols
	var nnz int64
	for _, m := range mats {
		if m.Rows != rows || m.Cols != cols {
			panic(fmt.Sprintf("sparse: SpMMBatchOn dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, rows, cols))
		}
		nnz += int64(m.NNZ())
	}
	if b.Rank() != 2 || b.Dim(0) != batch*cols {
		panic(fmt.Sprintf("sparse: SpMMBatchOn dense operand %v for %d×(%dx%d)", b.Shape(), batch, rows, cols))
	}
	w := b.Dim(1)
	out := tensor.NewOn(r, batch*rows, w)
	bd, od := b.Data(), out.Data()
	perRow := int64(1)
	if rows > 0 {
		perRow = nnz/int64(batch*rows)*2*int64(w) + 1
	}
	r.For(batch*rows, grainFor(perRow), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			item, row := idx/rows, idx%rows
			m := mats[item]
			orow := od[idx*w : (idx+1)*w]
			for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
				v := m.Val[p]
				bbase := (item*cols + m.Col[p]) * w
				brow := bd[bbase : bbase+w]
				for j := range orow {
					orow[j] += v * brow[j]
				}
			}
		}
	})
	return out
}
