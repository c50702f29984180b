package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// fftInPlaceRecurrence is fftInPlace as it ran before the twiddle table:
// every butterfly block reruns the c ← c·w recurrence from w^0. It is the
// reference the table must reproduce bit for bit.
func fftInPlaceRecurrence(re, im []float64, inv bool) {
	n := len(re)
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
		for start := 0; start < n; start += length {
			cr, ci := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				tr := re[i1]*cr - im[i1]*ci
				ti := re[i1]*ci + im[i1]*cr
				re[i1], im[i1] = re[i0]-tr, im[i0]-ti
				re[i0], im[i0] = re[i0]+tr, im[i0]+ti
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
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

func float64s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// TestFFTTwiddleTableBitIdentical runs the table-driven transform and the
// recurrence reference, forward and inverse, over random complex inputs
// of every power-of-two length up to 4096 (NVSA's hypervector width) on
// NaN-poisoned twiddle scratch; every output bit must agree.
func TestFFTTwiddleTableBitIdentical(t *testing.T) {
	g := NewRNG(11)
	for n := 1; n <= 4096; n <<= 1 {
		for _, inv := range []bool{false, true} {
			re, im := float64s(g.Normal(0, 1, n).Data()), float64s(g.Normal(0, 1, n).Data())
			wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
			fftInPlaceRecurrence(wantRe, wantIm, inv)
			tw := make([]float64, n)
			for i := range tw {
				tw[i] = math.NaN()
			}
			fftInPlace(re, im, tw, inv)
			name := fmt.Sprintf("n=%d inv=%v", n, inv)
			for i := range re {
				if math.Float64bits(re[i]) != math.Float64bits(wantRe[i]) || math.Float64bits(im[i]) != math.Float64bits(wantIm[i]) {
					t.Fatalf("%s: bin %d = %v%+vi, recurrence %v%+vi", name, i, re[i], im[i], wantRe[i], wantIm[i])
				}
			}
		}
	}
}
