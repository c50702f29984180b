package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// CircularConv returns the circular convolution of two equal-length vectors:
// out[k] = Σ_i a[i] * b[(k-i) mod n].
//
// Circular convolution is the binding operator of holographic reduced
// representations (HRR) and the core vector-symbolic primitive of NVSA and
// PrAE. For n ≥ fftThreshold the FFT path (O(n log n)) is used; below it
// the direct O(n²) kernel wins.
func CircularConv(a, b *Tensor) *Tensor { return CircularConvOn(Serial, a, b) }

// CircularConvOn is CircularConv dispatched on r. The direct path chunks
// over output indices; the FFT path runs the two forward transforms
// concurrently on runner scratch buffers and chunks the pointwise multiply.
func CircularConvOn(r Runner, a, b *Tensor) *Tensor {
	if a.Rank() != 1 || b.Rank() != 1 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: CircularConv needs equal-length vectors, got %v and %v", a.shape, b.shape))
	}
	n := a.shape[0]
	if n >= fftThreshold && n&(n-1) == 0 {
		return circularConvFFT(r, a, b)
	}
	return circularConvDirect(r, a, b)
}

// fftThreshold is the vector length above which the FFT path is preferred
// for power-of-two sizes.
const fftThreshold = 64

func circularConvDirect(r Runner, a, b *Tensor) *Tensor {
	n := a.shape[0]
	out := emptyOn(r, n)
	r.For(n, grainFor(2*int64(n)), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var s float64
			for i := 0; i < n; i++ {
				j := k - i
				if j < 0 {
					j += n
				}
				s += float64(a.data[i]) * float64(b.data[j])
			}
			out.data[k] = float32(s)
		}
	})
	return out
}

func circularConvFFT(r Runner, a, b *Tensor) *Tensor {
	n := a.shape[0]
	buf := r.Scratch(4 * n)
	defer r.Release(buf)
	tw := r.Scratch(2 * n) // one twiddle table per concurrent transform
	defer r.Release(tw)
	ar, ai := buf[0:n], buf[n:2*n]
	br, bi := buf[2*n:3*n], buf[3*n:4*n]
	// The two forward transforms touch disjoint buffers, so they can run as
	// two chunks; each transform itself is deterministic regardless.
	r.For(2, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if c == 0 {
				fillComplex(ar, ai, a.data)
				fftInPlace(ar, ai, tw[:n], false)
			} else {
				fillComplex(br, bi, b.data)
				fftInPlace(br, bi, tw[n:], false)
			}
		}
	})
	// Pointwise complex multiply.
	r.For(n, grainEltwise, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			re := ar[i]*br[i] - ai[i]*bi[i]
			im := ar[i]*bi[i] + ai[i]*br[i]
			ar[i], ai[i] = re, im
		}
	})
	fftInPlace(ar, ai, tw[:n], true)
	out := emptyOn(r, n)
	for i := 0; i < n; i++ {
		out.data[i] = float32(ar[i])
	}
	return out
}

// fillComplex loads a float32 vector into a real/imaginary float64 pair,
// zeroing the imaginary part.
func fillComplex(re, im []float64, x []float32) {
	for i, v := range x {
		re[i] = float64(v)
		im[i] = 0
	}
}

// fftInPlace runs the in-place iterative radix-2 Cooley-Tukey FFT (or
// inverse when inv is true) on a power-of-two-length complex sequence held
// as separate real/imaginary slices. tw is scratch for the twiddle table,
// at least len(re) long.
//
// Each stage's twiddles w^0 … w^(half-1) come from the recurrence
// c ← c·w, run once per stage into tw and read by every butterfly block,
// which is the sequence each block used to recompute: the bits do not
// change.
func fftInPlace(re, im, tw []float64, inv bool) {
	n := len(re)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("tensor: fft length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := bits.LeadingZeros32(uint32(n)) + 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse32(uint32(i)) >> shift)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inv {
			ang = -ang
		}
		wr, wi := math.Cos(ang), math.Sin(ang)
		half := length / 2
		twr, twi := tw[:half], tw[n/2:n/2+half]
		cr, ci := 1.0, 0.0
		for k := 0; k < half; k++ {
			twr[k], twi[k] = cr, ci
			cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
		}
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				cr, ci := twr[k], twi[k]
				tr := re[i1]*cr - im[i1]*ci
				ti := re[i1]*ci + im[i1]*cr
				re[i1], im[i1] = re[i0]-tr, im[i0]-ti
				re[i0], im[i0] = re[i0]+tr, im[i0]+ti
			}
		}
	}
	if inv {
		s := 1 / float64(n)
		for i := range re {
			re[i] *= s
			im[i] *= s
		}
	}
}
