// Package raven generates Raven's Progressive Matrices tasks in the style
// of the RAVEN and I-RAVEN datasets used to evaluate NVSA and PrAE.
//
// A task is an m×m matrix of panels with the last panel missing; each row
// follows one generative rule per attribute (constant, progression,
// arithmetic, distribute-three) over the attributes number, position, type,
// size and color. The solver must pick the missing panel from a candidate
// set. Candidates are generated I-RAVEN style, perturbing one attribute at
// a time so that shortcut solutions on the answer set alone fail.
package raven

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/tensor"
)

// Attribute enumerates the panel attributes governed by rules.
type Attribute int

// The RAVEN attributes.
const (
	Number Attribute = iota
	Position
	Type
	Size
	Color
	NumAttributes
)

// String returns the attribute name.
func (a Attribute) String() string {
	switch a {
	case Number:
		return "number"
	case Position:
		return "position"
	case Type:
		return "type"
	case Size:
		return "size"
	case Color:
		return "color"
	default:
		return fmt.Sprintf("Attribute(%d)", int(a))
	}
}

// Value ranges per attribute (inclusive counts of discrete levels).
const (
	TypeLevels  = 5  // triangle, square, pentagon, hexagon, circle
	SizeLevels  = 6  // relative scale levels
	ColorLevels = 10 // intensity levels
	GridSlots   = 9  // 3×3 object grid inside a panel
)

// Levels returns the number of discrete values an attribute can take.
func Levels(a Attribute) int {
	switch a {
	case Number:
		return GridSlots // 1..9 objects
	case Position:
		return GridSlots // slot index space (occupancy handled separately)
	case Type:
		return TypeLevels
	case Size:
		return SizeLevels
	case Color:
		return ColorLevels
	default:
		panic("raven: unknown attribute")
	}
}

// RuleType enumerates the RAVEN rule grammar.
type RuleType int

// The rule types.
const (
	Constant RuleType = iota
	Progression
	Arithmetic
	DistributeThree
	NumRuleTypes
)

// String returns the rule name.
func (r RuleType) String() string {
	switch r {
	case Constant:
		return "constant"
	case Progression:
		return "progression"
	case Arithmetic:
		return "arithmetic"
	case DistributeThree:
		return "distribute_three"
	default:
		return fmt.Sprintf("RuleType(%d)", int(r))
	}
}

// Rule binds a rule type (with an optional delta) to an attribute.
type Rule struct {
	Attr  Attribute
	Type  RuleType
	Delta int // progression step (±1, ±2) or arithmetic sign (±1)
	// triple holds the distribute-three value set.
	triple [3]int
}

// String renders the rule.
func (r Rule) String() string {
	if r.Type == Progression || r.Type == Arithmetic {
		return fmt.Sprintf("%s(%s,%+d)", r.Type, r.Attr, r.Delta)
	}
	return fmt.Sprintf("%s(%s)", r.Type, r.Attr)
}

// Panel is one matrix cell: a set of occupied grid slots holding objects
// with shared type/size/color attributes (the RAVEN "distribute"
// configurations with uniform object attributes).
type Panel struct {
	Slots [GridSlots]bool // occupancy
	Type  int             // 0..TypeLevels-1
	Size  int             // 0..SizeLevels-1
	Color int             // 0..ColorLevels-1
}

// NumberOf returns the object count.
func (p Panel) NumberOf() int {
	n := 0
	for _, s := range p.Slots {
		if s {
			n++
		}
	}
	return n
}

// AttrValue returns the panel's value for a rule-governed attribute.
// Position is encoded as the occupancy bitmask.
func (p Panel) AttrValue(a Attribute) int {
	switch a {
	case Number:
		return p.NumberOf()
	case Position:
		mask := 0
		for i, s := range p.Slots {
			if s {
				mask |= 1 << i
			}
		}
		return mask
	case Type:
		return p.Type
	case Size:
		return p.Size
	case Color:
		return p.Color
	default:
		panic("raven: unknown attribute")
	}
}

// Equal reports whether two panels are identical.
func (p Panel) Equal(q Panel) bool { return p == q }

// Task is one generated RPM instance.
type Task struct {
	M         int     // matrix dimension (2 or 3)
	Context   []Panel // the m*m-1 visible panels, row-major
	Choices   []Panel // candidate answers
	AnswerIdx int     // index of the correct candidate
	Rules     []Rule  // one rule per attribute
}

// Answer returns the correct panel.
func (t Task) Answer() Panel { return t.Choices[t.AnswerIdx] }

// Config controls task generation.
type Config struct {
	M          int // matrix dimension; default 3
	NumChoices int // candidate count; default 8
}

func (c *Config) defaults() {
	if c.M == 0 {
		c.M = 3
	}
	if c.NumChoices == 0 {
		c.NumChoices = 8
	}
}

// Generate produces one task with independently sampled rules per attribute.
func Generate(cfg Config, g *tensor.RNG) Task {
	cfg.defaults()
	m := cfg.M
	rules := []Rule{
		sampleRule(Number, m, g),
		sampleRule(Type, m, g),
		sampleRule(Size, m, g),
		sampleRule(Color, m, g),
	}
	// Build the full m×m matrix row by row.
	grid := make([][]Panel, m)
	for r := 0; r < m; r++ {
		grid[r] = buildRow(rules, r, m, g)
	}
	var ctx []Panel
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			if r == m-1 && c == m-1 {
				continue
			}
			ctx = append(ctx, grid[r][c])
		}
	}
	answer := grid[m-1][m-1]
	choices, idx := makeChoices(answer, cfg.NumChoices, g)
	return Task{M: m, Context: ctx, Choices: choices, AnswerIdx: idx, Rules: rules}
}

// sampleRule draws a rule applicable to the attribute within value range.
func sampleRule(a Attribute, m int, g *tensor.RNG) Rule {
	for {
		rt := RuleType(g.Intn(int(NumRuleTypes)))
		switch rt {
		case Constant:
			return Rule{Attr: a, Type: Constant}
		case Progression:
			delta := []int{-2, -1, 1, 2}[g.Intn(4)]
			// Ensure v0 + delta*(m-1) stays in range for some start value.
			if span := delta * (m - 1); span < Levels(a) && -span < Levels(a) {
				return Rule{Attr: a, Type: Progression, Delta: delta}
			}
		case Arithmetic:
			if m == 3 && a == Number { // arithmetic is defined on numeric attributes over 3 columns
				sign := []int{-1, 1}[g.Intn(2)]
				return Rule{Attr: a, Type: Arithmetic, Delta: sign}
			}
		case DistributeThree:
			lo := 0
			if a == Number {
				lo = 1 // object counts are 1-based
			}
			if m == 3 && Levels(a)-lo >= 3 {
				r := Rule{Attr: a, Type: DistributeThree}
				perm := g.Perm(Levels(a) - lo)
				for i := 0; i < 3; i++ {
					r.triple[i] = perm[i] + lo
				}
				return r
			}
		}
	}
}

// valueAt computes a rule's attribute value for (row, col) given the row's
// starting values. start has the row's first-column value; second the
// second-column value (needed by arithmetic).
func (r Rule) valueAt(row, col, m int, start, second int) int {
	switch r.Type {
	case Constant:
		return start
	case Progression:
		return start + r.Delta*col
	case Arithmetic:
		switch col {
		case 0:
			return start
		case 1:
			return second
		default:
			if r.Delta > 0 {
				return start + second
			}
			return start - second
		}
	case DistributeThree:
		return r.triple[(row+col)%3]
	default:
		panic("raven: unknown rule type")
	}
}

// buildRow samples row start values consistent with each rule and emits the
// row's panels.
func buildRow(rules []Rule, row, m int, g *tensor.RNG) []Panel {
	type attrPlan struct {
		rule          Rule
		start, second int
	}
	plans := make([]attrPlan, len(rules))
	for i, r := range rules {
		p := attrPlan{rule: r}
		lv := Levels(r.Attr)
		lo := 0
		if r.Attr == Number { // number is 1-based
			lo = 1
		}
	sample:
		for {
			p.start = lo + g.Intn(lv-lo)
			p.second = lo + g.Intn(lv-lo)
			for c := 0; c < m; c++ {
				v := r.valueAt(row, c, m, p.start, p.second)
				if v < lo || v >= lv {
					continue sample
				}
				if r.Attr == Number && (v < 1 || v > GridSlots) {
					continue sample
				}
			}
			break
		}
		plans[i] = p
	}
	panels := make([]Panel, m)
	var constSlots *[GridSlots]bool
	for c := 0; c < m; c++ {
		var pn Panel
		for _, p := range plans {
			v := p.rule.valueAt(row, c, m, p.start, p.second)
			switch p.rule.Attr {
			case Number:
				// Under a constant number rule the object layout itself is
				// held fixed across the row (the RAVEN position-constancy
				// convention); otherwise each panel re-samples placement.
				if p.rule.Type == Constant && constSlots != nil {
					pn.Slots = *constSlots
				} else {
					occupy(&pn, v, g)
					if p.rule.Type == Constant {
						s := pn.Slots
						constSlots = &s
					}
				}
			case Type:
				pn.Type = v
			case Size:
				pn.Size = v
			case Color:
				pn.Color = v
			}
		}
		panels[c] = pn
	}
	return panels
}

// occupy fills n grid slots deterministically-randomly.
func occupy(p *Panel, n int, g *tensor.RNG) {
	perm := g.Perm(GridSlots)
	for i := range p.Slots {
		p.Slots[i] = false
	}
	for i := 0; i < n && i < GridSlots; i++ {
		p.Slots[perm[i]] = true
	}
}

// makeChoices builds an I-RAVEN-style candidate set: the answer plus
// distractors that each perturb one attribute of the answer.
func makeChoices(answer Panel, n int, g *tensor.RNG) ([]Panel, int) {
	choices := make([]Panel, 0, n)
	idx := g.Intn(n)
	for len(choices) < n {
		if len(choices) == idx {
			choices = append(choices, answer)
			continue
		}
		d := answer
		switch Attribute(g.Intn(4)) {
		case Number:
			delta := 1 + g.Intn(2)
			target := d.NumberOf() + delta
			if target > GridSlots {
				target = d.NumberOf() - delta
			}
			if target < 1 {
				target = 1
			}
			occupy(&d, target, g)
		case Type:
			d.Type = (d.Type + 1 + g.Intn(TypeLevels-1)) % TypeLevels
		case Size:
			d.Size = (d.Size + 1 + g.Intn(SizeLevels-1)) % SizeLevels
		default:
			d.Color = (d.Color + 1 + g.Intn(ColorLevels-1)) % ColorLevels
		}
		if d.Equal(answer) {
			continue
		}
		dup := false
		for _, c := range choices {
			if c.Equal(d) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		choices = append(choices, d)
	}
	return choices, idx
}

// Validate checks that a task's context panels satisfy its rules row-wise.
// It returns an error naming the first violated rule, or nil.
func (t Task) Validate() error {
	full := make([]Panel, 0, t.M*t.M)
	full = append(full, t.Context...)
	// Insert the answer at the last position.
	full = append(full, t.Answer())
	for _, r := range t.Rules {
		for row := 0; row < t.M; row++ {
			vals := make([]int, t.M)
			for c := 0; c < t.M; c++ {
				vals[c] = full[row*t.M+c].AttrValue(r.Attr)
			}
			if err := checkRule(r, row, vals); err != nil {
				return fmt.Errorf("raven: row %d violates %s: %w", row, r, err)
			}
		}
	}
	return nil
}

func checkRule(r Rule, row int, vals []int) error {
	switch r.Type {
	case Constant:
		for _, v := range vals[1:] {
			if v != vals[0] {
				return fmt.Errorf("values %v not constant", vals)
			}
		}
	case Progression:
		for c := 1; c < len(vals); c++ {
			if vals[c]-vals[c-1] != r.Delta {
				return fmt.Errorf("values %v not progression %+d", vals, r.Delta)
			}
		}
	case Arithmetic:
		if len(vals) == 3 {
			want := vals[0] + r.Delta*vals[1]
			if vals[2] != want {
				return fmt.Errorf("values %v violate arithmetic", vals)
			}
		}
	case DistributeThree:
		seen := map[int]bool{}
		for _, v := range vals {
			seen[v] = true
		}
		if len(seen) != len(vals) {
			return fmt.Errorf("values %v not distinct in distribute-three", vals)
		}
		for _, v := range vals {
			if v != r.triple[0] && v != r.triple[1] && v != r.triple[2] {
				return fmt.Errorf("value %d outside triple %v", v, r.triple)
			}
		}
	}
	return nil
}
