// Package ltn implements the Logic Tensor Network workload (Badreddine et
// al., AIJ 2022; workload W2): neural groundings of first-order predicates
// over tabular data, combined under fuzzy first-order logic with smooth
// quantifier aggregation.
//
// The neural phase computes predicate groundings with an MLP (a frozen
// random feature layer plus a trained logistic head, so queries are
// meaningful without an autograd stack); the symbolic phase evaluates the
// knowledge axioms — class membership, mutual exclusion, existence — with
// Łukasiewicz connectives and p-mean quantifiers over the grounded truth
// tensors, producing the theory's satisfiability degree.
package ltn

import (
	"math"

	"github.com/neurosym/nsbench/internal/datasets"
	"github.com/neurosym/nsbench/internal/logic"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	Samples int   // dataset size; default 256
	Dim     int   // feature dimensionality; default 8
	Classes int   // class count; default 4
	Hidden  int   // random feature width; default 64
	Epochs  int   // logistic-head training epochs; default 30
	Seed    int64 // default 1
}

func (c *Config) defaults() {
	if c.Samples == 0 {
		c.Samples = 256
	}
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.Classes == 0 {
		c.Classes = 6
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// LTN is the workload instance.
type LTN struct {
	cfg  Config
	g    *tensor.RNG
	data *datasets.Tabular
	w1   *tensor.Tensor // hidden × dim frozen random features
	head *tensor.Tensor // classes × (hidden+1) trained logistic weights (incl. bias)
}

// New constructs the workload, generating data and fitting the predicate
// heads with plain SGD (one-vs-all logistic regression on the frozen
// random features).
func New(cfg Config) *LTN {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &LTN{
		cfg:  cfg,
		g:    g,
		data: datasets.GenTabular(cfg.Samples, cfg.Dim, cfg.Classes, g),
		w1:   g.Xavier(cfg.Dim, cfg.Hidden, cfg.Hidden, cfg.Dim),
	}
	w.head = g.Normal(0, 0.01, cfg.Classes, cfg.Hidden+1)
	w.train()
	return w
}

// hiddenFeatures computes the frozen random-feature layer without tracing.
func (w *LTN) hiddenFeatures() *tensor.Tensor {
	h := tensor.MatMul(w.data.X, tensor.Transpose(w.w1))
	return tensor.ReLU(h)
}

// train fits the logistic heads by SGD.
func (w *LTN) train() {
	h := w.hiddenFeatures()
	n, hd := h.Dim(0), h.Dim(1)
	lr := float32(0.1)
	for epoch := 0; epoch < w.cfg.Epochs; epoch++ {
		for i := 0; i < n; i++ {
			row := h.Data()[i*hd : (i+1)*hd]
			for c := 0; c < w.cfg.Classes; c++ {
				wrow := w.head.Data()[c*(hd+1) : (c+1)*(hd+1)]
				var z float32 = wrow[hd] // bias
				for j, v := range row {
					z += wrow[j] * v
				}
				p := float32(1 / (1 + math.Exp(-float64(z))))
				y := float32(0)
				if w.data.Y[i] == c {
					y = 1
				}
				gerr := (p - y) * lr
				for j, v := range row {
					wrow[j] -= gerr * v
				}
				wrow[hd] -= gerr
			}
		}
	}
}

// Name implements the workload identity.
func (w *LTN) Name() string { return "LTN" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro_Symbolic"

// Category returns the taxonomy category.
func (w *LTN) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *LTN) Register(e *ops.Engine) {
	e.RegisterParam("ltn.features", "weight", w.w1)
	e.RegisterParam("ltn.head", "weight", w.head)
}

// Run grounds all predicates over the dataset and evaluates the theory.
func (w *LTN) Run(e *ops.Engine) error {
	_, err := w.Satisfiability(e)
	return err
}

// Satisfiability computes the aggregate truth degree of the LTN theory.
func (w *LTN) Satisfiability(e *ops.Engine) (float64, error) {
	w.Register(e)
	// ---- Neural groundings -------------------------------------------------
	e.SetPhase(trace.Neural)
	x := e.HostToDevice(w.data.X)
	hidden := e.ReLU(e.MatMul(x, e.Transpose(w.w1)))
	// Append the bias column.
	ones := tensor.Ones(hidden.Dim(0), 1)
	hb := e.Concat(1, hidden, ones)
	logits := e.MatMul(hb, e.Transpose(w.head))
	truths := e.Sigmoid(logits) // n × classes grounded predicate degrees
	truths = e.DeviceToHost(truths)

	// ---- Symbolic theory evaluation ----------------------------------------
	e.SetPhase(trace.Symbolic)
	n, k := truths.Dim(0), truths.Dim(1)
	var axioms []float64

	// Axiom set 1: ∀x∈class_c: P_c(x), aggregated with p-mean error.
	e.InStage("axiom_membership", func() {
		for c := 0; c < k; c++ {
			col := e.Slice(e.Transpose(truths), c, c+1).Reshape(n)
			mask := tensor.New(n)
			for i, y := range w.data.Y {
				if y == c {
					mask.Data()[i] = 1
				}
			}
			sel := e.MaskedSelect(col, mask)
			if sel.Size() == 0 {
				continue
			}
			// pmean_error: 1 - (mean (1-d)^p)^(1/p), tensorized.
			comp := e.AddScalar(e.Neg(sel), 1)
			sq := e.Mul(comp, comp)
			mean := e.MeanAxis(sq.Reshape(1, sq.Size()), 1)
			deg := 1 - math.Sqrt(float64(mean.Item()))
			axioms = append(axioms, clamp01(deg))
		}
	})

	// Axiom set 2: mutual exclusion ∀x: P_c(x) → ¬P_c'(x) for c < c',
	// with the Łukasiewicz implication a→b = min(1, 1-a+b), b = 1-P_c'.
	e.InStage("axiom_exclusion", func() {
		cols := make([]*tensor.Tensor, k)
		tt := e.Transpose(truths)
		for c := 0; c < k; c++ {
			cols[c] = e.Slice(tt, c, c+1).Reshape(n)
		}
		for c := 0; c < k; c++ {
			for c2 := c + 1; c2 < k; c2++ {
				notB := e.AddScalar(e.Neg(cols[c2]), 1)
				impl := e.Clamp(e.AddScalar(e.Add(e.Neg(cols[c]), notB), 1), 0, 1)
				comp := e.AddScalar(e.Neg(impl), 1)
				sq := e.Mul(comp, comp)
				mean := e.MeanAxis(sq.Reshape(1, n), 1)
				axioms = append(axioms, clamp01(1-math.Sqrt(float64(mean.Item()))))
			}
		}
	})

	// Axiom set 3: ∃x: P_c(x) per class, p-mean aggregation.
	e.InStage("axiom_existence", func() {
		tt := e.Transpose(truths)
		for c := 0; c < k; c++ {
			col := e.Slice(tt, c, c+1).Reshape(n)
			sq := e.Mul(col, col)
			mean := e.MeanAxis(sq.Reshape(1, n), 1)
			axioms = append(axioms, clamp01(math.Sqrt(float64(mean.Item()))))
		}
	})

	// Theory satisfiability: the aggregated degree over all axioms.
	var sat float64
	e.InStage("satisfiability", func() {
		e.Logic("TheoryAggregate", int64(len(axioms)), int64(len(axioms))*8, nil, func() []*tensor.Tensor {
			sat = (logic.PMeanError{P: 2}).Aggregate(axioms)
			return nil
		})
	})
	return sat, nil
}

// QueryAccuracy classifies every sample by its most-true predicate and
// returns agreement with the labels (an LTN "query answering" task).
func (w *LTN) QueryAccuracy() float64 {
	h := w.hiddenFeatures()
	n, hd := h.Dim(0), h.Dim(1)
	correct := 0
	for i := 0; i < n; i++ {
		row := h.Data()[i*hd : (i+1)*hd]
		best, bi := float32(math.Inf(-1)), 0
		for c := 0; c < w.cfg.Classes; c++ {
			wrow := w.head.Data()[c*(hd+1) : (c+1)*(hd+1)]
			z := wrow[hd]
			for j, v := range row {
				z += wrow[j] * v
			}
			if z > best {
				best, bi = z, c
			}
		}
		if bi == w.data.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
