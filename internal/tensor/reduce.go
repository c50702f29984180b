package tensor

import (
	"fmt"
	"math"
)

// reduceAxisOn applies a reduction along axis of a, producing a tensor with
// that axis removed, chunked on r over the output elements. Each output
// keeps its own accumulator folded in serial axis order, so chunking never
// reorders float operations. init seeds the accumulator, step folds, finish
// maps the accumulator and reduced length to the output value.
func reduceAxisOn(r Runner, a *Tensor, axis int, init float64, step func(acc float64, v float32) float64, finish func(acc float64, n int) float32) *Tensor {
	if axis < 0 || axis >= a.Rank() {
		panic(fmt.Sprintf("tensor: reduce axis %d out of range for shape %v", axis, a.shape))
	}
	outShape := make([]int, 0, a.Rank()-1)
	outShape = append(outShape, a.shape[:axis]...)
	outShape = append(outShape, a.shape[axis+1:]...)
	out := emptyOn(r, outShape...)

	// Decompose indexing as outer × axis × inner.
	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= a.shape[i]
	}
	for i := axis + 1; i < a.Rank(); i++ {
		inner *= a.shape[i]
	}
	n := a.shape[axis]
	r.For(outer*inner, grainFor(int64(n)), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			o, in := idx/inner, idx%inner
			acc := init
			base := o*n*inner + in
			for k := 0; k < n; k++ {
				acc = step(acc, a.data[base+k*inner])
			}
			out.data[idx] = finish(acc, n)
		}
	})
	return out
}

func sumStep(acc float64, v float32) float64 { return acc + float64(v) }
func maxStep(acc float64, v float32) float64 { return math.Max(acc, float64(v)) }
func minStep(acc float64, v float32) float64 { return math.Min(acc, float64(v)) }
func idFinish(acc float64, _ int) float32    { return float32(acc) }
func meanFinish(acc float64, n int) float32  { return float32(acc / float64(n)) }

// SumAxis sums along the given axis, removing it.
func SumAxis(a *Tensor, axis int) *Tensor { return SumAxisOn(Serial, a, axis) }

// SumAxisOn is SumAxis dispatched on r.
func SumAxisOn(r Runner, a *Tensor, axis int) *Tensor {
	return reduceAxisOn(r, a, axis, 0, sumStep, idFinish)
}

// MeanAxis averages along the given axis, removing it.
func MeanAxis(a *Tensor, axis int) *Tensor { return MeanAxisOn(Serial, a, axis) }

// MeanAxisOn is MeanAxis dispatched on r.
func MeanAxisOn(r Runner, a *Tensor, axis int) *Tensor {
	return reduceAxisOn(r, a, axis, 0, sumStep, meanFinish)
}

// MaxAxis takes the maximum along the given axis, removing it.
func MaxAxis(a *Tensor, axis int) *Tensor { return MaxAxisOn(Serial, a, axis) }

// MaxAxisOn is MaxAxis dispatched on r.
func MaxAxisOn(r Runner, a *Tensor, axis int) *Tensor {
	return reduceAxisOn(r, a, axis, math.Inf(-1), maxStep, idFinish)
}

// MinAxis takes the minimum along the given axis, removing it.
func MinAxis(a *Tensor, axis int) *Tensor { return MinAxisOn(Serial, a, axis) }

// MinAxisOn is MinAxis dispatched on r.
func MinAxisOn(r Runner, a *Tensor, axis int) *Tensor {
	return reduceAxisOn(r, a, axis, math.Inf(1), minStep, idFinish)
}

// ArgMax returns the index of the largest element of a flat tensor.
func ArgMax(a *Tensor) int {
	if a.Size() == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := a.data[0], 0
	for i, v := range a.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Softmax returns the softmax over the last axis of a, computed with the
// max-subtraction trick for numerical stability.
func Softmax(a *Tensor) *Tensor { return SoftmaxOn(Serial, a) }

// SoftmaxOn is Softmax dispatched on r, chunked over rows. Each row's
// max/sum/scale passes stay in serial order within a single chunk.
func SoftmaxOn(r Runner, a *Tensor) *Tensor {
	if a.Rank() == 0 {
		return Ones()
	}
	n := a.shape[a.Rank()-1]
	rows := a.Size() / n
	out := emptyOn(r, a.shape...)
	r.For(rows, grainFor(4*int64(n)), func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			row := a.data[ri*n : (ri+1)*n]
			orow := out.data[ri*n : (ri+1)*n]
			m := row[0]
			for _, v := range row[1:] {
				if v > m {
					m = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(float64(v - m))
				orow[i] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for i := range orow {
				orow[i] *= inv
			}
		}
	})
	return out
}

// Normalize scales a flat tensor to unit L2 norm; zero tensors are returned unchanged.
func Normalize(a *Tensor) *Tensor { return NormalizeOn(Serial, a) }

// NormalizeOn is Normalize dispatched on r. The norm itself is a
// single-accumulator reduction and stays serial (see Dot); only the scale
// pass is chunked.
func NormalizeOn(r Runner, a *Tensor) *Tensor {
	n := a.Norm()
	if n == 0 {
		return CopyOn(r, a)
	}
	return MulScalarOn(r, a, 1/n)
}

// NormalizeL1 scales a to unit L1 mass (useful for probability vectors);
// zero tensors are returned unchanged.
func NormalizeL1(a *Tensor) *Tensor { return NormalizeL1On(Serial, a) }

// NormalizeL1On is NormalizeL1 dispatched on r; like NormalizeOn, the mass
// accumulation stays serial and only the scale pass is chunked.
func NormalizeL1On(r Runner, a *Tensor) *Tensor {
	var s float64
	for _, v := range a.data {
		s += math.Abs(float64(v))
	}
	if s == 0 {
		return CopyOn(r, a)
	}
	return MulScalarOn(r, a, float32(1/s))
}
