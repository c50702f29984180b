// Package tensor implements a dense FP32 N-dimensional tensor library.
//
// It is the compute substrate for the nsbench neuro-symbolic workloads,
// standing in for the role PyTorch plays in the original ISPASS 2024
// characterization study. Tensors are always contiguous and row-major.
// Operations that would produce a view (Transpose, Reshape with copy)
// materialize their result so that downstream cost accounting (bytes
// touched, FLOPs) is exact.
//
// Shape mismatches are programmer errors and panic with a descriptive
// message, following the convention of numeric libraries; data-dependent
// failures return errors.
package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// idCounter assigns a unique ID to every tensor, used by the trace layer
// to reconstruct operator dependency graphs.
var idCounter atomic.Uint64

// Tensor is a dense, contiguous, row-major N-dimensional array of float32.
// The zero value is not useful; construct tensors with New, Zeros, Full,
// FromSlice, or the random constructors.
type Tensor struct {
	shape []int
	data  []float32
	id    uint64
}

// New returns a zero-filled tensor with the given shape.
// New() with no dimensions returns a scalar (rank-0) tensor holding one element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
		id:    idCounter.Add(1),
	}
}

// Zeros is an alias for New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float32) *Tensor {
	t := New()
	t.data[0] = v
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); callers must not alias it afterwards unless they
// intend shared storage.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data, id: idCounter.Add(1)}
}

// checkShape validates a shape and returns its element count.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// ID returns the tensor's unique identity, used for dependency tracking.
func (t *Tensor) ID() uint64 { return t.id }

// Shape returns the tensor's dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Bytes returns the storage footprint in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the underlying storage. The slice is live: writes are
// visible to the tensor. Row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy with a fresh ID.
func (t *Tensor) Clone() *Tensor { return CopyOn(Serial, t) }

// Reshape returns a tensor sharing t's storage with a new shape of equal
// element count. The result keeps t's ID: a metadata-only alias is the same
// value in the dataflow graph, so dependency chains flow through reshapes.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data, id: t.id}
}

// offset computes the linear index for coordinates idx.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given coordinates.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// Item returns the value of a single-element tensor.
func (t *Tensor) Item() float32 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item called on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// ShapeString renders the shape as e.g. "[2 3 4]".
func (t *Tensor) ShapeString() string {
	parts := make([]string, len(t.shape))
	for i, d := range t.shape {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// String renders small tensors in full and large tensors as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%s%v", t.ShapeString(), t.data)
	}
	return fmt.Sprintf("Tensor%s{%d elems, min=%.4g max=%.4g}", t.ShapeString(), len(t.data), t.Min(), t.Max())
}

// Min returns the smallest element. Panics on empty tensors.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element. Panics on empty tensors.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all elements, accumulated in float64 for accuracy.
func (t *Tensor) Sum() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return float32(s)
}

// Norm returns the L2 norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Sparsity returns the fraction of elements whose absolute value is at or
// below eps. This matches the paper's definition of (unstructured) sparsity
// ratio used in the Fig. 5 analysis.
func (t *Tensor) Sparsity(eps float32) float64 {
	if len(t.data) == 0 {
		return 0
	}
	return float64(t.CountZero(eps)) / float64(len(t.data))
}

// CountZero returns the number of elements whose absolute value is at or
// below eps (NaN counts as non-zero), the numerator of Sparsity.
func (t *Tensor) CountZero(eps float32) int {
	zero := 0
	for _, v := range t.data {
		if v <= eps && v >= -eps {
			zero++
		}
	}
	return zero
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// AllFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
