// Package sparse implements COO and CSR sparse matrices over float32.
//
// Sparse kernels back the GNN-style operators named in the paper's Table I
// (SpMM, SDDMM) and the "coalescing" data-transformation operator described
// in its characterization taxonomy (Sec. IV-B).
package sparse

import (
	"fmt"
	"sort"

	"github.com/neurosym/nsbench/internal/tensor"
)

// COO is a coordinate-format sparse matrix. Entries may be unsorted and may
// contain duplicates until Coalesce is called.
type COO struct {
	Rows, Cols int
	Row, Col   []int
	Val        []float32
}

// NewCOO returns an empty rows×cols COO matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Append adds an entry. Out-of-range coordinates panic.
func (m *COO) Append(r, c int, v float32) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", r, c, m.Rows, m.Cols))
	}
	m.Row = append(m.Row, r)
	m.Col = append(m.Col, c)
	m.Val = append(m.Val, v)
}

// NNZ returns the stored entry count (including duplicates before Coalesce).
func (m *COO) NNZ() int { return len(m.Val) }

// Coalesce sorts entries by (row, col) and sums duplicates, in place.
// This is the "coalescing" operator of the paper's data-transformation
// category. It returns the number of duplicate entries merged.
func (m *COO) Coalesce() int {
	n := len(m.Val)
	if n == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if m.Row[ia] != m.Row[ib] {
			return m.Row[ia] < m.Row[ib]
		}
		return m.Col[ia] < m.Col[ib]
	})
	newRow := make([]int, 0, n)
	newCol := make([]int, 0, n)
	newVal := make([]float32, 0, n)
	merged := 0
	for _, i := range idx {
		last := len(newVal) - 1
		if last >= 0 && newRow[last] == m.Row[i] && newCol[last] == m.Col[i] {
			newVal[last] += m.Val[i]
			merged++
			continue
		}
		newRow = append(newRow, m.Row[i])
		newCol = append(newCol, m.Col[i])
		newVal = append(newVal, m.Val[i])
	}
	m.Row, m.Col, m.Val = newRow, newCol, newVal
	return merged
}

// ToDense materializes the matrix as a dense tensor (duplicates are summed).
func (m *COO) ToDense() *tensor.Tensor {
	t := tensor.New(m.Rows, m.Cols)
	d := t.Data()
	for i, v := range m.Val {
		d[m.Row[i]*m.Cols+m.Col[i]] += v
	}
	return t
}

// FromDense converts a dense rank-2 tensor to COO, keeping entries with
// |v| > eps.
func FromDense(t *tensor.Tensor, eps float32) *COO {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("sparse: FromDense needs rank-2 tensor, got %v", t.Shape()))
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := NewCOO(rows, cols)
	d := t.Data()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := d[r*cols+c]
			if v > eps || v < -eps {
				m.Append(r, c, v)
			}
		}
	}
	return m
}

// CSR is a compressed-sparse-row matrix with sorted column indices per row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float32
}

// ToCSR converts a COO matrix to CSR. The COO is coalesced first (on a copy
// of the index slices' order; the receiver is modified by Coalesce).
func (m *COO) ToCSR() *CSR {
	m.Coalesce()
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int, m.Rows+1),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float32(nil), m.Val...),
	}
	for _, r := range m.Row {
		c.RowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	return c
}

// NNZ returns the stored entry count.
func (c *CSR) NNZ() int { return len(c.Val) }

// SpMM computes the sparse-dense product c × b where b is a dense
// Cols×n tensor, returning a dense Rows×n tensor.
func (c *CSR) SpMM(b *tensor.Tensor) *tensor.Tensor {
	if b.Rank() != 2 || b.Dim(0) != c.Cols {
		panic(fmt.Sprintf("sparse: SpMM dimension mismatch %dx%d times %v", c.Rows, c.Cols, b.Shape()))
	}
	n := b.Dim(1)
	out := tensor.New(c.Rows, n)
	bd, od := b.Data(), out.Data()
	for r := 0; r < c.Rows; r++ {
		orow := od[r*n : (r+1)*n]
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			v := c.Val[p]
			brow := bd[c.Col[p]*n : (c.Col[p]+1)*n]
			for j := range orow {
				orow[j] += v * brow[j]
			}
		}
	}
	return out
}

// SDDMM computes the sampled dense-dense matrix multiplication: for each
// stored position (r,c) of the sparsity pattern, out(r,c) = pattern(r,c) *
// (A·Bᵀ)(r,c), where a is Rows×k and b is Cols×k. This is the
// attention-style operator listed for GNN+attention in the paper's Table I.
func (c *CSR) SDDMM(a, b *tensor.Tensor) *CSR {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != c.Rows || b.Dim(0) != c.Cols || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("sparse: SDDMM shape mismatch pattern %dx%d, a %v, b %v", c.Rows, c.Cols, a.Shape(), b.Shape()))
	}
	k := a.Dim(1)
	out := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: append([]int(nil), c.RowPtr...),
		Col:    append([]int(nil), c.Col...),
		Val:    make([]float32, len(c.Val)),
	}
	ad, bd := a.Data(), b.Data()
	for r := 0; r < c.Rows; r++ {
		arow := ad[r*k : (r+1)*k]
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			brow := bd[c.Col[p]*k : (c.Col[p]+1)*k]
			var s float64
			for i := range arow {
				s += float64(arow[i]) * float64(brow[i])
			}
			out.Val[p] = c.Val[p] * float32(s)
		}
	}
	return out
}

// ToDense materializes the CSR matrix as a dense tensor.
func (c *CSR) ToDense() *tensor.Tensor {
	t := tensor.New(c.Rows, c.Cols)
	d := t.Data()
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			d[r*c.Cols+c.Col[p]] = c.Val[p]
		}
	}
	return t
}

// BytesSpMM returns the algorithmic traffic of an SpMM: index+value reads
// for every stored entry, a dense row read per entry, and the output write.
func BytesSpMM(nnz, rows, n int) int64 {
	return int64(nnz)*(4+4) + int64(nnz)*int64(n)*4 + int64(rows)*int64(n)*4
}
