// Package quant implements the paper's algorithm-level optimization
// recommendations as executable ablations: INT8 affine quantization of
// tensors and kernels (Recommendation 3 — model compression to cut memory
// and data-movement overhead) and sparsity-aware execution of the
// probability tensors (Recommendation 7 — skip the zero mass that
// dominates NVSA's symbolic stages).
package quant

import (
	"fmt"
	"math"

	"github.com/neurosym/nsbench/internal/tensor"
)

// QTensor is an affine-quantized INT8 tensor: real ≈ scale * (q - zero).
type QTensor struct {
	Shape []int
	Data  []int8
	Scale float32
	Zero  int8
}

// Quantize converts a float tensor to INT8 with a symmetric range fitted
// to the tensor's min/max.
func Quantize(t *tensor.Tensor) *QTensor {
	q := &QTensor{
		Shape: append([]int(nil), t.Shape()...),
		Data:  make([]int8, t.Size()),
	}
	if t.Size() == 0 {
		q.Scale = 1
		return q
	}
	lo, hi := t.Min(), t.Max()
	// The representable range must include zero so the zero-point lands
	// inside [-128, 127] (the standard affine-quantization convention).
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		hi = lo + 1
	}
	q.Scale = (hi - lo) / 255
	zero := math.Round(float64(-128 - lo/q.Scale))
	if zero > 127 {
		zero = 127
	}
	if zero < -128 {
		zero = -128
	}
	q.Zero = int8(zero)
	for i, v := range t.Data() {
		iv := math.Round(float64(v/q.Scale)) + zero
		if iv > 127 {
			iv = 127
		}
		if iv < -128 {
			iv = -128
		}
		q.Data[i] = int8(iv)
	}
	return q
}

// Dequantize reconstructs the float tensor.
func (q *QTensor) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, v := range q.Data {
		t.Data()[i] = q.Scale * float32(int32(v)-int32(q.Zero))
	}
	return t
}

// MaxAbsError returns the largest absolute reconstruction error vs t.
func MaxAbsError(t *tensor.Tensor, q *QTensor) float32 {
	d := q.Dequantize()
	var m float32
	for i, v := range t.Data() {
		e := v - d.Data()[i]
		if e < 0 {
			e = -e
		}
		if e > m {
			m = e
		}
	}
	return m
}

// SparseVec is a sparsity-aware vector: only entries with |v| > eps are
// stored. It executes the element-wise kernels of the symbolic stages
// touching only non-zero mass (Recommendation 7).
type SparseVec struct {
	N   int
	Idx []int
	Val []float32
}

// ToSparse compresses a vector, dropping entries with |v| <= eps.
func ToSparse(t *tensor.Tensor, eps float32) *SparseVec {
	if t.Rank() != 1 {
		panic(fmt.Sprintf("quant: ToSparse needs a vector, got %v", t.Shape()))
	}
	s := &SparseVec{N: t.Dim(0)}
	for i, v := range t.Data() {
		if v > eps || v < -eps {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, v)
		}
	}
	return s
}

// ToDense reconstructs the dense vector.
func (s *SparseVec) ToDense() *tensor.Tensor {
	t := tensor.New(s.N)
	for k, i := range s.Idx {
		t.Data()[i] = s.Val[k]
	}
	return t
}

// NNZ returns the stored entry count.
func (s *SparseVec) NNZ() int { return len(s.Val) }

// Bytes returns the storage footprint (index + value per entry).
func (s *SparseVec) Bytes() int64 { return int64(len(s.Val)) * 8 }

// JointSparse computes the joint distribution of two sparse PMFs: the
// sparsity-aware analogue of abduction.Joint, with O(nnz_a · nnz_b) work
// instead of O(n_a · n_b) — the FLOP and traffic reduction Recommendation 7
// projects for the >95%-sparse probability tensors.
func JointSparse(a, b *SparseVec) *SparseVec {
	out := &SparseVec{N: a.N * b.N}
	for i, ai := range a.Idx {
		for j, bj := range b.Idx {
			out.Idx = append(out.Idx, ai*b.N+bj)
			out.Val = append(out.Val, a.Val[i]*b.Val[j])
		}
	}
	return out
}

// Savings quantifies an ablation: the dense and optimized byte/op counts.
type Savings struct {
	DenseBytes, OptBytes int64
	DenseOps, OptOps     int64
}

// BytesReductionX returns the footprint reduction factor.
func (s Savings) BytesReductionX() float64 {
	if s.OptBytes == 0 {
		return 0
	}
	return float64(s.DenseBytes) / float64(s.OptBytes)
}

// OpsReductionX returns the work reduction factor.
func (s Savings) OpsReductionX() float64 {
	if s.OptOps == 0 {
		return 0
	}
	return float64(s.DenseOps) / float64(s.OptOps)
}

// JointSavings computes the dense-vs-sparse cost of one joint expansion.
func JointSavings(a, b *SparseVec) Savings {
	return Savings{
		DenseBytes: int64(a.N+b.N+a.N*b.N) * 4,
		OptBytes:   a.Bytes() + b.Bytes() + int64(a.NNZ()*b.NNZ())*8,
		DenseOps:   int64(a.N) * int64(b.N),
		OptOps:     int64(a.NNZ()) * int64(b.NNZ()),
	}
}

// QuantSavings computes the dense-vs-INT8 cost of one codebook cleanup.
func QuantSavings(rows, cols int) Savings {
	return Savings{
		DenseBytes: int64(rows)*int64(cols)*4 + int64(cols)*4 + int64(rows)*4,
		OptBytes:   int64(rows)*int64(cols) + int64(cols) + int64(rows)*4,
		DenseOps:   2 * int64(rows) * int64(cols),
		OptOps:     2 * int64(rows) * int64(cols), // same ops, quarter traffic
	}
}
