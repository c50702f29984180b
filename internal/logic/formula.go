package logic

import (
	"fmt"
	"strings"
)

// Term is a constant or variable appearing as a predicate argument.
type Term struct {
	Name string
	Var  bool // true for variables, false for constants
}

// V returns a variable term.
func V(name string) Term { return Term{Name: name, Var: true} }

// C returns a constant term.
func C(name string) Term { return Term{Name: name, Var: false} }

// Formula is a first-order logic formula AST.
type Formula interface {
	// String renders the formula.
	String() string
}

// Atom is an applied predicate, e.g. isMammal(x).
type Atom struct {
	Pred string
	Args []Term
}

// Pred constructs an atom.
func Pred(name string, args ...Term) *Atom { return &Atom{Pred: name, Args: args} }

// String implements Formula.
func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.Name
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// AndF is fuzzy conjunction over two or more conjuncts.
type AndF struct{ Fs []Formula }

// And constructs a conjunction.
func And(fs ...Formula) *AndF { return &AndF{Fs: fs} }

// String implements Formula.
func (a *AndF) String() string { return joinFormulas(a.Fs, " ∧ ") }

// ImpliesF is fuzzy implication.
type ImpliesF struct{ A, B Formula }

// Implies constructs an implication.
func Implies(a, b Formula) *ImpliesF { return &ImpliesF{A: a, B: b} }

// String implements Formula.
func (i *ImpliesF) String() string {
	return "(" + i.A.String() + " → " + i.B.String() + ")"
}

// QuantF is a quantified formula over one variable.
type QuantF struct {
	Universal bool // ∀ when true, ∃ when false
	Var       string
	Body      Formula
}

// Forall constructs a universal quantification.
func Forall(v string, body Formula) *QuantF {
	return &QuantF{Universal: true, Var: v, Body: body}
}

// String implements Formula.
func (q *QuantF) String() string {
	sym := "∃"
	if q.Universal {
		sym = "∀"
	}
	return fmt.Sprintf("%s%s.%s", sym, q.Var, q.Body.String())
}

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// FactBase stores ground facts with their truth degrees. Missing atoms
// default to the given unknown degree.
type FactBase struct {
	facts   map[string]float64
	Default float64
}

// NewFactBase returns an empty fact base with default degree 0.
func NewFactBase() *FactBase {
	return &FactBase{facts: make(map[string]float64)}
}

// key builds the canonical atom key.
func (fb *FactBase) key(pred string, args []string) string {
	return pred + "(" + strings.Join(args, ",") + ")"
}

// Assert stores a ground fact with the given degree.
func (fb *FactBase) Assert(pred string, degree float64, args ...string) {
	fb.facts[fb.key(pred, args)] = clamp01(degree)
}

// Truth returns the degree of pred(args...) with fully ground args.
func (fb *FactBase) Truth(pred string, args []string) float64 {
	if d, ok := fb.facts[fb.key(pred, args)]; ok {
		return d
	}
	return fb.Default
}

// Len returns the number of stored facts.
func (fb *FactBase) Len() int { return len(fb.facts) }

// Bytes estimates the storage footprint of the fact base.
func (fb *FactBase) Bytes() int64 {
	var n int64
	for k := range fb.facts {
		n += int64(len(k)) + 8
	}
	return n
}
