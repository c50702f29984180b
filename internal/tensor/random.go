package tensor

import (
	"math"
	"math/rand"
)

// RNG is a seeded random source for deterministic tensor initialization.
// All nsbench randomness flows through explicitly seeded RNGs so that every
// experiment is reproducible. It draws exactly the stream of
// rand.New(rand.NewSource(seed)), from a source whose state Clone can copy.
type RNG struct {
	src *lfSource
	r   *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	src := new(lfSource)
	src.Seed(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// Clone returns an independent generator in g's current state: it draws
// the stream g would draw next, and drawing from either leaves the other
// unchanged. A shared model hands each run a clone of its generator, so
// every run sees the stream a freshly built model would. Clone copies the
// source, which is all the state every draw method reads; only
// (*rand.Rand).Read, which no caller uses, buffers bytes beside it.
func (g *RNG) Clone() *RNG {
	src := *g.src
	return &RNG{src: &src, r: rand.New(&src)}
}

// Rand returns the underlying *rand.Rand for ad-hoc draws.
func (g *RNG) Rand() *rand.Rand { return g.r }

// Uniform returns a tensor with elements drawn from U[lo, hi).
func (g *RNG) Uniform(lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*g.r.Float32()
	}
	return t
}

// Normal returns a tensor with elements drawn from N(mean, std²).
func (g *RNG) Normal(mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*float32(g.r.NormFloat64())
	}
	return t
}

// Xavier returns a tensor initialized with Glorot/Xavier uniform scaling
// for a layer with the given fan-in and fan-out.
func (g *RNG) Xavier(fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return g.Uniform(-limit, limit, shape...)
}

// Bipolar returns a tensor of random ±1 entries — the MAP-B hypervector
// distribution used by NVSA-style codebooks.
func (g *RNG) Bipolar(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		if g.r.Intn(2) == 0 {
			t.data[i] = 1
		} else {
			t.data[i] = -1
		}
	}
	return t
}

// HRRVector returns a random holographic vector: i.i.d. N(0, 1/n) entries,
// the standard HRR initialization whose circular-convolution bindings are
// approximately invertible by circular correlation.
func (g *RNG) HRRVector(n int) *Tensor {
	return g.Normal(0, float32(1/math.Sqrt(float64(n))), n)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }
