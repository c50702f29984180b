package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// lfSeeds covers the seeding edge cases: zero (replaced by a fixed seed),
// negatives, both sides of the 2³¹−1 modulus and the int64 extremes.
var lfSeeds = []int64{0, 1, -1, 42, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64}

// TestLFSourceMatchesMathRand pins the port bit for bit: for every seed,
// NewRNG's generator draws exactly what rand.New(rand.NewSource(seed))
// draws, through the raw source and through every derived method the
// tensor initializers and workloads use.
func TestLFSourceMatchesMathRand(t *testing.T) {
	const n = 1_000_000
	for _, seed := range lfSeeds {
		got, want := NewRNG(seed).r, rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		for i := 0; i < 10_000; i++ {
			if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Float32(), want.Float32(); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("seed %d: Float32 draw %d = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Intn(i+1), want.Intn(i+1); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, i+1, g, w)
			}
		}
		for _, k := range []int{0, 1, 7, 100, 1000} {
			g, w := got.Perm(k), want.Perm(k)
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("seed %d: Perm(%d)[%d] = %d, want %d", seed, k, i, g[i], w[i])
				}
			}
		}
	}
}

// TestRNGCloneIndependent checks Clone: the clone draws the stream the
// original would have drawn next, and drawing from one leaves the other
// where it was.
func TestRNGCloneIndependent(t *testing.T) {
	for _, seed := range lfSeeds {
		g := NewRNG(seed)
		for i := 0; i < 1000; i++ { // move off the seeded state
			g.Float64()
		}
		c := g.Clone()
		ref := g.Clone()
		const n = 5000
		want := make([]float64, n)
		for i := range want {
			want[i] = ref.Float64()
		}
		// Draw the clone ahead first: the original must not move.
		for i := 0; i < n; i++ {
			if got := c.Float64(); got != want[i] {
				t.Fatalf("seed %d: clone draw %d = %v, want %v", seed, i, got, want[i])
			}
		}
		for i := 0; i < n; i++ {
			if got := g.Float64(); got != want[i] {
				t.Fatalf("seed %d: original draw %d after the clone drew = %v, want %v", seed, i, got, want[i])
			}
		}
	}
}
