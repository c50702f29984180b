// Package abduction implements probabilistic rule abduction and execution
// over attribute probability mass functions — the symbolic reasoning core
// shared by the NVSA and PrAE workloads.
//
// Given per-panel PMFs over an attribute's discrete levels, the engine
// computes, for every candidate rule in the RAVEN grammar, the probability
// that the visible rows follow that rule (abduction); it then executes the
// best rule on the last row's visible panels to predict the missing
// panel's PMF (execution). All tensor work runs on the instrumented ops
// engine so it appears in the symbolic-phase trace.
package abduction

import (
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
)

// CandidateRule is one rule hypothesis over an attribute.
type CandidateRule struct {
	Type  raven.RuleType
	Delta int // progression step or arithmetic sign
}

// Candidates enumerates the hypothesis space for an attribute on an m×m task.
func Candidates(a raven.Attribute, m int) []CandidateRule {
	cs := []CandidateRule{{Type: raven.Constant}}
	for _, d := range []int{-2, -1, 1, 2} {
		cs = append(cs, CandidateRule{Type: raven.Progression, Delta: d})
	}
	if m == 3 {
		if a == raven.Number {
			cs = append(cs, CandidateRule{Type: raven.Arithmetic, Delta: 1},
				CandidateRule{Type: raven.Arithmetic, Delta: -1})
		}
		cs = append(cs, CandidateRule{Type: raven.DistributeThree})
	}
	return cs
}

// ShiftPMF returns the PMF shifted by k levels with zero fill (not
// circular): out[v] = p[v+k] when in range. The shift is recorded as a
// gather (irregular data transformation).
func ShiftPMF(e *ops.Engine, p *tensor.Tensor, k int) *tensor.Tensor {
	lv := p.Dim(0)
	// Append a zero slot to source rows so out-of-range indices read zero.
	padded := e.Concat(0, p, tensor.Zeros(1))
	idx := make([]int, lv)
	for v := 0; v < lv; v++ {
		src := v + k
		if src < 0 || src >= lv {
			src = lv // the zero slot
		}
		idx[v] = src
	}
	return e.Gather(padded.Reshape(lv+1, 1), idx).Reshape(lv)
}

// Joint returns the joint PMF of two independent attribute PMFs as a
// flattened len(a)*len(b) tensor, computed with explicit expansion and an
// element-wise product (the exhaustive probability representation whose
// extreme sparsity Fig. 5 characterizes). The expansion is traced as the
// two gathers it models; the joint's storage comes from the engine's
// scratch pool, so a caller may Release it once nothing reads it.
func Joint(e *ops.Engine, a, b *tensor.Tensor) *tensor.Tensor {
	ea, eb := e.ExpandOuter(a, b)
	joint := e.MulInPlace(ea, eb)
	e.Release(eb)
	return joint
}

// RowProb computes P(rule | row PMFs) for one complete row of three panels
// (or two for m=2 progressions/constants).
func RowProb(e *ops.Engine, c CandidateRule, row []*tensor.Tensor) *tensor.Tensor {
	switch c.Type {
	case raven.Constant:
		acc := row[0]
		for _, p := range row[1:] {
			acc = e.Mul(acc, p)
		}
		return e.SumAxis(acc.Reshape(1, acc.Dim(0)), 1).Reshape()
	case raven.Progression:
		// P = Σ_v p1[v]·p2[v+Δ]·p3[v+2Δ]: align later panels by shifting
		// them back onto the first panel's value axis.
		acc := row[0]
		for i, p := range row[1:] {
			acc = e.Mul(acc, ShiftPMF(e, p, c.Delta*(i+1)))
		}
		return e.SumAxis(acc.Reshape(1, acc.Dim(0)), 1).Reshape()
	case raven.Arithmetic:
		if len(row) != 3 {
			return tensor.Scalar(0)
		}
		// P = Σ_{a,b} p1[a] p2[b] p3[a + s·b]; the joint over (a,b) is the
		// exhaustive probability tensor, then an irregular gather pulls the
		// matching p3 entries.
		lv := row[0].Dim(0)
		joint := Joint(e, row[0], row[1])
		padded := e.Concat(0, row[2], tensor.Zeros(1))
		idx := make([]int, lv*lv)
		for a := 0; a < lv; a++ {
			for b := 0; b < lv; b++ {
				// Number PMFs are 0-based bins of 1-based counts:
				// count = bin+1, so bin3 = bin1 + s·(bin2+1).
				target := a + c.Delta*(b+1)
				if target < 0 || target >= lv {
					target = lv
				}
				idx[a*lv+b] = target
			}
		}
		p3 := e.Gather(padded.Reshape(lv+1, 1), idx).Reshape(lv * lv)
		prod := e.Mul(joint, p3)
		return e.SumAxis(prod.Reshape(1, lv*lv), 1).Reshape()
	case raven.DistributeThree:
		if len(row) != 3 {
			return tensor.Scalar(0)
		}
		// P = Σ over distinct triples (a,b,c) of p1[a]p2[b]p3[c]: total
		// mass minus the off-diagonal exclusions, computed with joint
		// expansions (inclusion–exclusion over pairwise equality).
		all := prodMass(e, row[0], row[1], row[2])
		eq12 := pairEqualMass(e, row[0], row[1], row[2], 0, 1)
		eq13 := pairEqualMass(e, row[0], row[1], row[2], 0, 2)
		eq23 := pairEqualMass(e, row[0], row[1], row[2], 1, 2)
		allEq := tripleEqualMass(e, row[0], row[1], row[2])
		s := e.Sub(all, eq12)
		s = e.Sub(s, eq13)
		s = e.Sub(s, eq23)
		twice := e.AddScalar(e.MulScalar(allEq, 2), 0)
		return e.Add(s, twice)
	default:
		return tensor.Scalar(0)
	}
}

// prodMass returns Σ_a p1[a] · Σ_b p2[b] · Σ_c p3[c] as a scalar tensor.
func prodMass(e *ops.Engine, p1, p2, p3 *tensor.Tensor) *tensor.Tensor {
	s1 := e.SumAxis(p1.Reshape(1, p1.Dim(0)), 1).Reshape()
	s2 := e.SumAxis(p2.Reshape(1, p2.Dim(0)), 1).Reshape()
	s3 := e.SumAxis(p3.Reshape(1, p3.Dim(0)), 1).Reshape()
	return e.Mul(e.Mul(s1, s2), s3)
}

// pairEqualMass returns Σ_v pi[v]·pj[v] · (mass of the third PMF).
func pairEqualMass(e *ops.Engine, p1, p2, p3 *tensor.Tensor, i, j int) *tensor.Tensor {
	ps := []*tensor.Tensor{p1, p2, p3}
	var third *tensor.Tensor
	for k, p := range ps {
		if k != i && k != j {
			third = p
		}
	}
	eq := e.Mul(ps[i], ps[j])
	eqMass := e.SumAxis(eq.Reshape(1, eq.Dim(0)), 1).Reshape()
	thirdMass := e.SumAxis(third.Reshape(1, third.Dim(0)), 1).Reshape()
	return e.Mul(eqMass, thirdMass)
}

// tripleEqualMass returns Σ_v p1[v]p2[v]p3[v].
func tripleEqualMass(e *ops.Engine, p1, p2, p3 *tensor.Tensor) *tensor.Tensor {
	m := e.Mul(e.Mul(p1, p2), p3)
	return e.SumAxis(m.Reshape(1, m.Dim(0)), 1).Reshape()
}

// Abduce scores every candidate rule for an attribute over the task's
// complete rows and returns the scores aligned with Candidates(a, m).
// rows holds the context PMFs row-major: rows[r][c]; the last row has one
// missing panel and contributes partial evidence only through execution.
func Abduce(e *ops.Engine, a raven.Attribute, m int, rows [][]*tensor.Tensor) []float32 {
	cands := Candidates(a, m)
	scores := make([]float32, len(cands))
	for ci, c := range cands {
		prob := float32(1)
		for r := 0; r < m-1; r++ {
			p := RowProb(e, c, rows[r])
			prob *= p.Item()
		}
		if c.Type == raven.DistributeThree && m >= 2 {
			// Distribute-three additionally requires the same value triple
			// in every row — including the last row's visible panels, which
			// is what disambiguates it from progressions whose rows happen
			// to repeat the same values.
			prob *= tripleConsistency(e, rows)
		}
		scores[ci] = prob
	}
	return scores
}

// tripleConsistency returns the probability that every complete row's
// values fall inside the triple defined by the first row's modes.
func tripleConsistency(e *ops.Engine, completeRows [][]*tensor.Tensor) float32 {
	if len(completeRows) < 2 {
		return 1
	}
	lv := completeRows[0][0].Dim(0)
	mask := tensor.New(lv)
	for _, p := range completeRows[0] {
		mask.Data()[tensor.ArgMax(p)] = 1
	}
	prob := float32(1)
	for _, row := range completeRows[1:] {
		for _, p := range row {
			inTriple := e.Mul(p, mask)
			prob *= e.SumAxis(inTriple.Reshape(1, lv), 1).Reshape().Item()
		}
	}
	return prob
}

// BestRule returns the highest-scoring candidate and its score.
func BestRule(a raven.Attribute, m int, scores []float32) (CandidateRule, float32) {
	cands := Candidates(a, m)
	best, bi := scores[0], 0
	for i, s := range scores[1:] {
		if s > best {
			best, bi = s, i+1
		}
	}
	return cands[bi], best
}

// Execute predicts the missing panel's PMF for an attribute by applying the
// rule to the last row's visible PMFs.
func Execute(e *ops.Engine, c CandidateRule, lastRow []*tensor.Tensor) *tensor.Tensor {
	n := len(lastRow)
	switch c.Type {
	case raven.Constant:
		// Consensus of the visible panels.
		acc := lastRow[0]
		for _, p := range lastRow[1:] {
			acc = e.Mul(acc, p)
		}
		return e.NormalizeL1(acc)
	case raven.Progression:
		return ShiftPMF(e, lastRow[n-1], -c.Delta)
	case raven.Arithmetic:
		// p3[v] = Σ_{a+s(b+1)=v} p1[a] p2[b]: a distribution convolution
		// realized with the joint expansion and a scatter-style gather-sum.
		lv := lastRow[0].Dim(0)
		joint := Joint(e, lastRow[0], lastRow[1])
		out := tensor.New(lv)
		outs := e.Logic("ArithmeticExecute", int64(lv*lv), int64(lv*lv*4), []*tensor.Tensor{joint}, func() []*tensor.Tensor {
			for a := 0; a < lv; a++ {
				for b := 0; b < lv; b++ {
					v := a + c.Delta*(b+1)
					if v >= 0 && v < lv {
						out.Data()[v] += joint.At(a*lv + b)
					}
				}
			}
			return []*tensor.Tensor{out}
		})
		return e.NormalizeL1(outs[0])
	case raven.DistributeThree:
		// The missing value completes the permutation: suppress the values
		// already present in the row, keep the remaining candidate mass.
		mask := tensor.Ones(lastRow[0].Dim(0))
		for _, p := range lastRow {
			seen := tensor.OneHot(tensor.ArgMax(p), p.Dim(0))
			mask = e.Mul(mask, e.AddScalar(e.Neg(seen), 1))
		}
		// Candidate values are those seen anywhere in earlier rows; here we
		// approximate with the union of the row's complement weighted by
		// the visible panels' value set from the first complete row.
		return e.NormalizeL1(e.Mul(mask, sumPMFs(e, lastRow)))
	default:
		return e.NormalizeL1(lastRow[n-1])
	}
}

// sumPMFs returns the element-wise sum of the PMFs.
func sumPMFs(e *ops.Engine, ps []*tensor.Tensor) *tensor.Tensor {
	acc := ps[0]
	for _, p := range ps[1:] {
		acc = e.Add(acc, p)
	}
	return acc
}

// ExecuteWithContext predicts the missing PMF with full row context: for
// distribute-three the candidate triple is taken from the first complete
// row, which makes the completion exact.
func ExecuteWithContext(e *ops.Engine, c CandidateRule, rows [][]*tensor.Tensor) *tensor.Tensor {
	m := len(rows)
	lastRow := rows[m-1]
	if c.Type != raven.DistributeThree {
		return Execute(e, c, lastRow)
	}
	lv := lastRow[0].Dim(0)
	// Triple = modes of the first complete row.
	tripleMask := tensor.New(lv)
	for _, p := range rows[0] {
		tripleMask.Data()[tensor.ArgMax(p)] = 1
	}
	// Remove the values already visible in the last row.
	mask := tripleMask
	for _, p := range lastRow {
		seen := tensor.OneHot(tensor.ArgMax(p), lv)
		mask = e.Mul(mask, e.AddScalar(e.Neg(seen), 1))
	}
	if mask.Sum() == 0 {
		return e.NormalizeL1(tripleMask)
	}
	return e.NormalizeL1(mask)
}
