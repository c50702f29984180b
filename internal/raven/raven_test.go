package raven

import (
	"testing"

	"github.com/neurosym/nsbench/internal/tensor"
)

func TestGenerateValidates(t *testing.T) {
	g := tensor.NewRNG(1)
	for i := 0; i < 50; i++ {
		task := Generate(Config{M: 3}, g)
		if err := task.Validate(); err != nil {
			t.Fatalf("task %d invalid: %v", i, err)
		}
		if len(task.Context) != 8 {
			t.Fatalf("context size = %d", len(task.Context))
		}
		if len(task.Choices) != 8 {
			t.Fatalf("choices = %d", len(task.Choices))
		}
		if task.AnswerIdx < 0 || task.AnswerIdx >= len(task.Choices) {
			t.Fatalf("answer index = %d", task.AnswerIdx)
		}
	}
}

func TestGenerate2x2(t *testing.T) {
	g := tensor.NewRNG(2)
	for i := 0; i < 30; i++ {
		task := Generate(Config{M: 2, NumChoices: 4}, g)
		if len(task.Context) != 3 || len(task.Choices) != 4 {
			t.Fatalf("2x2 shape wrong: %d context, %d choices", len(task.Context), len(task.Choices))
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("2x2 task invalid: %v", err)
		}
	}
}

func TestDistractorsDiffer(t *testing.T) {
	g := tensor.NewRNG(3)
	task := Generate(Config{}, g)
	ans := task.Answer()
	for i, c := range task.Choices {
		if i == task.AnswerIdx {
			continue
		}
		if c.Equal(ans) {
			t.Fatalf("distractor %d equals the answer", i)
		}
	}
	// All candidates distinct.
	for i := range task.Choices {
		for j := i + 1; j < len(task.Choices); j++ {
			if task.Choices[i].Equal(task.Choices[j]) {
				t.Fatalf("duplicate candidates %d and %d", i, j)
			}
		}
	}
}

func TestAttrValueAndNumber(t *testing.T) {
	var p Panel
	p.Slots[0], p.Slots[4], p.Slots[8] = true, true, true
	p.Type, p.Size, p.Color = 2, 3, 7
	if p.NumberOf() != 3 || p.AttrValue(Number) != 3 {
		t.Fatalf("NumberOf = %d", p.NumberOf())
	}
	if p.AttrValue(Position) != (1 | 1<<4 | 1<<8) {
		t.Fatalf("position mask = %d", p.AttrValue(Position))
	}
	if p.AttrValue(Type) != 2 || p.AttrValue(Size) != 3 || p.AttrValue(Color) != 7 {
		t.Fatal("attribute values wrong")
	}
}

func TestRuleStringsAndLevels(t *testing.T) {
	r := Rule{Attr: Size, Type: Progression, Delta: -1}
	if r.String() != "progression(size,-1)" {
		t.Fatalf("rule string = %s", r.String())
	}
	if Levels(Color) != 10 || Levels(Type) != 5 || Levels(Number) != 9 {
		t.Fatal("levels wrong")
	}
	if Number.String() != "number" || Color.String() != "color" {
		t.Fatal("attribute names wrong")
	}
}

func TestRenderProducesInk(t *testing.T) {
	g := tensor.NewRNG(4)
	task := Generate(Config{}, g)
	img := task.Context[0].Render(32)
	if img.Dim(2) != 32 || img.Dim(3) != 32 {
		t.Fatalf("render shape = %v", img.Shape())
	}
	if img.Sum() <= 0 {
		t.Fatal("rendered panel is blank")
	}
	if img.Max() > 1 || img.Min() < 0 {
		t.Fatalf("render range [%v, %v]", img.Min(), img.Max())
	}
}

func TestRenderDistinguishesPanels(t *testing.T) {
	a := Panel{Type: 0, Size: 5, Color: 9}
	a.Slots[4] = true
	b := Panel{Type: 4, Size: 1, Color: 2}
	b.Slots[4] = true
	ia, ib := a.Render(32), b.Render(32)
	diff := 0
	for i := range ia.Data() {
		if ia.Data()[i] != ib.Data()[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different panels rendered identically")
	}
}

func TestPerceivePMFNoiseless(t *testing.T) {
	var p Panel
	p.Slots[0], p.Slots[1] = true, true
	p.Type, p.Size, p.Color = 1, 2, 3
	pmf := PerceivePMF(p, 0, nil)
	if pmf[Number].At(1) != 1 { // two objects → bin 1
		t.Fatalf("number PMF = %v", pmf[Number].Data())
	}
	if pmf[Type].At(1) != 1 || pmf[Size].At(2) != 1 || pmf[Color].At(3) != 1 {
		t.Fatal("one-hot PMFs wrong")
	}
}

func TestPerceivePMFNoisySumsToOne(t *testing.T) {
	g := tensor.NewRNG(5)
	var p Panel
	p.Slots[3] = true
	p.Color = 9
	for i := 0; i < 20; i++ {
		pmf := PerceivePMF(p, 0.2, g)
		for a, m := range pmf {
			s := m.Sum()
			if s < 0.999 || s > 1.001 {
				t.Fatalf("%v PMF sums to %v", a, s)
			}
			if am := tensor.ArgMax(m); a == Color && am != 9 {
				// With 20% noise the mode must remain the truth.
				t.Fatalf("color mode = %d", am)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{}, tensor.NewRNG(42))
	b := Generate(Config{}, tensor.NewRNG(42))
	if a.AnswerIdx != b.AnswerIdx || len(a.Context) != len(b.Context) {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Context {
		if !a.Context[i].Equal(b.Context[i]) {
			t.Fatal("panels differ across identical seeds")
		}
	}
}

func TestRuleDiversity(t *testing.T) {
	g := tensor.NewRNG(6)
	seen := map[RuleType]bool{}
	for i := 0; i < 100; i++ {
		task := Generate(Config{}, g)
		for _, r := range task.Rules {
			seen[r.Type] = true
		}
	}
	for rt := Constant; rt < NumRuleTypes; rt++ {
		if !seen[rt] {
			t.Fatalf("rule type %v never generated", rt)
		}
	}
}
