// Package vsa holds the hypervector state of the vector-symbolic
// workloads: spaces that draw random hypervectors, item memories
// (codebooks) and the random projection of locality-sensitive hashing.
//
// Two algebras are provided, matching the workloads that use them:
//
//   - MAP (Multiply-Add-Permute) over bipolar {-1,+1} vectors, where binding
//     is the Hadamard product (self-inverse) — used by VSAIT's hyperspace
//     encoding.
//   - HRR (Holographic Reduced Representations) over real vectors, where
//     binding is circular convolution — the algebra behind NVSA's codebook
//     reasoning.
//
// The operators themselves (binding, bundling, similarity, cleanup) run in
// the workloads as instrumented ops.Engine calls, so they appear in the
// traces as the vector/element-wise symbolic kernels the paper
// characterizes.
package vsa

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/tensor"
)

// Model selects the hypervector algebra.
type Model int

// Supported algebras.
const (
	MAP Model = iota // bipolar, Hadamard binding
	HRR              // real, circular-convolution binding
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case MAP:
		return "MAP"
	case HRR:
		return "HRR"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Space is a hypervector space of fixed dimensionality and algebra.
type Space struct {
	Dim   int
	Model Model
	rng   *tensor.RNG
}

// NewSpace returns a space with its own deterministic generator.
func NewSpace(model Model, dim int, seed int64) *Space {
	if dim <= 0 {
		panic("vsa: dimension must be positive")
	}
	return &Space{Dim: dim, Model: model, rng: tensor.NewRNG(seed)}
}

// Random draws a fresh random hypervector of the space's distribution.
func (s *Space) Random() *tensor.Tensor {
	switch s.Model {
	case MAP:
		return s.rng.Bipolar(s.Dim)
	case HRR:
		return s.rng.HRRVector(s.Dim)
	default:
		panic("vsa: unknown model")
	}
}

// Codebook is an item memory mapping symbols to hypervectors. NVSA's
// "codebook" frontend is an instance; its cleanup is a similarity search
// over Vectors.
type Codebook struct {
	Names   []string
	Vectors *tensor.Tensor // n × dim matrix of item vectors
}

// NewCodebook allocates random item vectors for the given symbols, which
// must be distinct.
func NewCodebook(space *Space, names []string) *Codebook {
	cb := &Codebook{
		Names:   append([]string(nil), names...),
		Vectors: tensor.New(len(names), space.Dim),
	}
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if seen[n] {
			panic(fmt.Sprintf("vsa: duplicate codebook symbol %q", n))
		}
		seen[n] = true
		v := space.Random()
		copy(cb.Vectors.Data()[i*space.Dim:(i+1)*space.Dim], v.Data())
	}
	return cb
}

// Len returns the number of stored items.
func (c *Codebook) Len() int { return len(c.Names) }

// Bytes returns the codebook storage footprint.
func (c *Codebook) Bytes() int64 { return c.Vectors.Bytes() }

// LSHEncoder holds the random projection of the locality-sensitive hashing
// VSAIT uses to encode image features as bipolar hypervectors: a feature
// vector f hashes to sign(Proj·f).
type LSHEncoder struct {
	Proj *tensor.Tensor // dim × in random projection
}

// NewLSHEncoder returns an encoder from in-dimensional features to the
// space's dimensionality.
func NewLSHEncoder(space *Space, in int, seed int64) *LSHEncoder {
	g := tensor.NewRNG(seed)
	return &LSHEncoder{Proj: g.Normal(0, 1, space.Dim, in)}
}

// Bytes returns the projection storage footprint.
func (l *LSHEncoder) Bytes() int64 { return l.Proj.Bytes() }
