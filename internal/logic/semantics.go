// Package logic implements the symbolic-logic substrate of nsbench: the
// first-order formula AST that LNN compiles its rules from, the fact base
// that grounds them, and LTN's smooth universal quantifier.
package logic

import "math"

// clamp01 restricts v to [0,1], guarding accumulated rounding.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// PMeanError is LTN's smooth universal quantifier: 1 - (mean((1-d)^p))^(1/p).
// Larger p approaches min.
type PMeanError struct{ P float64 }

// Aggregate folds the truth degrees of a quantifier's instances (which
// must be non-empty) into one degree.
func (a PMeanError) Aggregate(ds []float64) float64 {
	p := a.P
	if p <= 0 {
		p = 2
	}
	var s float64
	for _, d := range ds {
		s += math.Pow(1-clamp01(d), p)
	}
	s /= float64(len(ds))
	return clamp01(1 - math.Pow(s, 1/p))
}
