package logic

import (
	"math"
	"testing"
)

func feq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAggregators(t *testing.T) {
	ds := []float64{0.2, 0.8, 0.5}
	pe := PMeanError{P: 2}.Aggregate(ds)
	if pe <= 0.2 || pe >= 0.8 {
		t.Fatalf("pmean_error out of range: %v", pe)
	}
	// All-true and all-false fixed points.
	if !feq(PMeanError{P: 2}.Aggregate([]float64{1, 1}), 1) {
		t.Fatal("pmean_error of all-1 must be 1")
	}
	if !feq(PMeanError{P: 2}.Aggregate([]float64{0, 0}), 0) {
		t.Fatal("pmean_error of all-0 must be 0")
	}
}

func TestFormulaStringsAndFreeVars(t *testing.T) {
	f := Forall("x", Implies(Pred("carnivore", V("x")), Pred("mammal", V("x"))))
	if f.String() != "∀x.(carnivore(x) → mammal(x))" {
		t.Fatalf("String = %s", f.String())
	}
	open := And(Pred("p", V("x")), Pred("q", V("y"), C("a")))
	if open.String() != "(p(x) ∧ q(y,a))" {
		t.Fatalf("String = %s", open.String())
	}
}

func TestFactBase(t *testing.T) {
	fb := NewFactBase()
	fb.Assert("likes", 0.7, "a", "b")
	if fb.Len() != 1 || fb.Bytes() <= 0 {
		t.Fatal("fact base accounting wrong")
	}
	if !feq(fb.Truth("likes", []string{"a", "b"}), 0.7) {
		t.Fatal("stored fact lookup wrong")
	}
	if !feq(fb.Truth("likes", []string{"b", "a"}), 0) {
		t.Fatal("default degree wrong")
	}
	fb.Default = 0.5
	if !feq(fb.Truth("other", []string{"z"}), 0.5) {
		t.Fatal("custom default wrong")
	}
}
