// Package nlm implements the Neural Logic Machine workload (Dong et al.,
// ICLR 2019; workload W4): a multi-layer, multi-group architecture over
// predicate tensors of increasing arity, where per-arity MLPs approximate
// logical connectives and the expand/reduce/permute wiring realizes
// quantifiers.
//
// Phase split: the neural component is the per-arity MLP blocks (GEMM +
// activations over flattened predicate groups); the symbolic component is
// the sequential logic-deduction wiring — expansion, reduction, permutation
// and the fuzzy-logic min/max quantifier composition — that stitches the
// groups together between layers.
package nlm

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/datasets"
	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	Objects int   // entities in the relational universe; default 24
	Depth   int   // NLM layers; default 3
	Width   int   // predicate group feature width; default 8
	Seed    int64 // default 1
}

func (c *Config) defaults() {
	if c.Objects == 0 {
		c.Objects = 24
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// NLM is the workload instance.
type NLM struct {
	cfg    Config
	g      *tensor.RNG
	family *datasets.FamilyGraph
	// Per-layer MLPs for the unary and binary groups.
	unary  []*nn.Sequential
	binary []*nn.Sequential
}

// New constructs the workload over a generated family graph.
func New(cfg Config) *NLM {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &NLM{cfg: cfg, g: g, family: datasets.GenFamilyGraph(cfg.Objects, g)}
	d := cfg.Width
	for l := 0; l < cfg.Depth; l++ {
		// Input widths: own group + reduced/expanded neighbours.
		w.unary = append(w.unary, nn.NewMLP(g, fmt.Sprintf("nlm.u%d", l), d+2*d, d))
		w.binary = append(w.binary, nn.NewMLP(g, fmt.Sprintf("nlm.b%d", l), d+d+2*d, d))
	}
	return w
}

// Name implements the workload identity.
func (w *NLM) Name() string { return "NLM" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro[Symbolic]"

// Category returns the taxonomy category.
func (w *NLM) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *NLM) Register(e *ops.Engine) {
	for _, m := range w.unary {
		m.Register(e)
	}
	for _, m := range w.binary {
		m.Register(e)
	}
}

// inputs builds the initial predicate tensors from the family graph:
// unary (n × width) object properties and binary (n² × width) relations
// with the parent relation in channel 0 and its transpose in channel 1.
func (w *NLM) inputs() (unary, binary *tensor.Tensor) {
	n, d := w.cfg.Objects, w.cfg.Width
	unary = tensor.New(n, d)
	for i := 0; i < n; i++ {
		unary.Data()[i*d] = float32(i) / float32(n) // index encoding
		hasParent := float32(0)
		for p := 0; p < n; p++ {
			if w.family.Parent[p][i] {
				hasParent = 1
			}
		}
		if d > 1 {
			unary.Data()[i*d+1] = 1 - hasParent // root indicator
		}
	}
	binary = tensor.New(n*n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w.family.Parent[i][j] {
				binary.Data()[(i*n+j)*d] = 1
			}
			if w.family.Parent[j][i] && d > 1 {
				binary.Data()[(i*n+j)*d+1] = 1
			}
			if i == j && d > 2 {
				binary.Data()[(i*n+j)*d+2] = 1
			}
		}
	}
	return unary, binary
}

// Run performs one forward deduction pass over the family universe.
func (w *NLM) Run(e *ops.Engine) error {
	_, _, err := w.Forward(e)
	return err
}

// Forward runs the multi-layer deduction and returns the final unary and
// binary predicate groups.
func (w *NLM) Forward(e *ops.Engine) (*tensor.Tensor, *tensor.Tensor, error) {
	w.Register(e)
	n, d := w.cfg.Objects, w.cfg.Width

	e.SetPhase(trace.Neural)
	unary, binary := w.inputs()
	unary = e.HostToDevice(unary)
	binary = e.HostToDevice(binary)

	for l := 0; l < w.cfg.Depth; l++ {
		// ---- Symbolic wiring: expand / reduce / permute -------------------
		var expandI, expandJ, reduceMax, reduceMin, permuted *tensor.Tensor
		e.SetPhase(trace.Symbolic)
		e.InStage(fmt.Sprintf("wiring_l%d", l), func() {
			// Expansion: unary → binary space, both roles.
			idxI := make([]int, n*n)
			idxJ := make([]int, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					idxI[i*n+j] = i
					idxJ[i*n+j] = j
				}
			}
			expandI = e.Gather(unary, idxI)
			expandJ = e.Gather(unary, idxJ)
			// Permutation: swap the two object roles of the binary group.
			b3 := e.Reshape(binary, n, n, d)
			permuted = e.Reshape(e.Permute(b3, 1, 0, 2), n*n, d)
			// Reduction: the ∃ and ∀ quantifier realizations.
			b3r := e.Reshape(binary, n, n, d)
			reduceMax = e.MaxAxis(b3r, 1)
			reduceMin = e.MinAxis(b3r, 1)
			// Fuzzy-logic composition of the quantifier views over the
			// binary group: the sequential logic-deduction chain of the
			// multi-group architecture (∃/∀ alternation, implication and
			// negation realized as element-wise lattice operations).
			conj := e.Minimum(binary, permuted)
			disj := e.Maximum(binary, permuted)
			impl := e.Clamp(e.AddScalar(e.Add(e.Neg(conj), disj), 1), 0, 1)
			neg := e.AddScalar(e.Neg(impl), 1)
			comp := e.Maximum(e.Minimum(neg, expandI), expandJ)
			// Second deduction hop: compose the derived predicate group
			// with the permuted view (the lifted transitive step).
			hop := e.Minimum(comp, permuted)
			hop = e.Clamp(e.AddScalar(e.Add(hop, binary), -1), 0, 1)
			_ = e.Maximum(hop, conj)
			_ = e.Maximum(reduceMax, reduceMin)
		})

		// ---- Neural MLP blocks --------------------------------------------
		e.SetPhase(trace.Neural)
		uin := e.Concat(1, unary, reduceMax, reduceMin)
		unary = e.Sigmoid(w.unary[l].Forward(e, uin))
		bin := e.Concat(1, binary, permuted, expandI, expandJ)
		binary = e.Sigmoid(w.binary[l].Forward(e, bin))
	}
	binary = e.DeviceToHost(binary)
	return unary, binary, nil
}

// SolveGrandparent derives the grandparent relation exactly with the
// tensorized logic path (a two-hop ∃-composition: GP(a,c) = ∃b P(a,b) ∧
// P(b,c)), demonstrating NLM's lifted-rule generalization independent of
// universe size. Returns the n×n boolean relation.
func (w *NLM) SolveGrandparent(e *ops.Engine) [][]bool {
	n := w.cfg.Objects
	p := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w.family.Parent[i][j] {
				p.Set(1, i, j)
			}
		}
	}
	e.SetPhase(trace.Symbolic)
	var out [][]bool
	e.InStage("grandparent_deduction", func() {
		// ∃-composition via boolean matrix product and threshold.
		comp := e.MatMul(p, p)
		gp := e.Greater(comp, tensor.Zeros(n, n))
		out = make([][]bool, n)
		for i := 0; i < n; i++ {
			out[i] = make([]bool, n)
			for j := 0; j < n; j++ {
				out[i][j] = gp.At(i, j) > 0
			}
		}
	})
	return out
}

// Family exposes the underlying graph (for verification).
func (w *NLM) Family() *datasets.FamilyGraph { return w.family }
