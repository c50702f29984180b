package datasets

import (
	"testing"

	"github.com/neurosym/nsbench/internal/logic"
	"github.com/neurosym/nsbench/internal/tensor"
)

func TestGenKnowledgeBase(t *testing.T) {
	g := tensor.NewRNG(1)
	kb := GenKnowledgeBase(30, g)
	if len(kb.Constants) != 30 {
		t.Fatalf("constants = %d", len(kb.Constants))
	}
	if kb.Facts.Len() == 0 || len(kb.Rules) != 5 || len(kb.Queries) == 0 {
		t.Fatalf("kb incomplete: facts=%d rules=%d queries=%d", kb.Facts.Len(), len(kb.Rules), len(kb.Queries))
	}
	// Every professor asserted is a person.
	if kb.Facts.Truth("person", []string{"prof0"}) != 1 {
		t.Fatal("prof0 should be a person")
	}
	// Rules must be well-formed closed formulas.
	for _, r := range kb.Rules {
		if fv := freeVars(r, map[string]bool{}); len(fv) != 0 {
			t.Fatalf("rule %s has free vars %v", r, fv)
		}
	}
}

// freeVars lists the variables of f that no enclosing quantifier binds,
// over the node types the knowledge base's rules use.
func freeVars(f logic.Formula, bound map[string]bool) []string {
	switch x := f.(type) {
	case *logic.Atom:
		var free []string
		for _, a := range x.Args {
			if a.Var && !bound[a.Name] {
				free = append(free, a.Name)
			}
		}
		return free
	case *logic.AndF:
		var free []string
		for _, g := range x.Fs {
			free = append(free, freeVars(g, bound)...)
		}
		return free
	case *logic.ImpliesF:
		return append(freeVars(x.A, bound), freeVars(x.B, bound)...)
	case *logic.QuantF:
		inner := map[string]bool{x.Var: true}
		for v := range bound {
			inner[v] = true
		}
		return freeVars(x.Body, inner)
	default:
		return []string{"<unknown node " + f.String() + ">"}
	}
}

func TestGenKnowledgeBaseMinimumSize(t *testing.T) {
	kb := GenKnowledgeBase(1, tensor.NewRNG(2))
	if len(kb.Constants) < 6 {
		t.Fatalf("minimum size not enforced: %d", len(kb.Constants))
	}
}

func TestGenTabular(t *testing.T) {
	g := tensor.NewRNG(3)
	tab := GenTabular(100, 4, 3, g)
	if tab.X.Dim(0) != 100 || tab.X.Dim(1) != 4 || len(tab.Y) != 100 {
		t.Fatalf("tabular shape wrong: %v", tab.X.Shape())
	}
	seen := map[int]bool{}
	for _, y := range tab.Y {
		if y < 0 || y >= 3 {
			t.Fatalf("label out of range: %d", y)
		}
		seen[y] = true
	}
	if len(seen) != 3 {
		t.Fatalf("not all classes present: %v", seen)
	}
}

func TestGenFamilyGraph(t *testing.T) {
	g := tensor.NewRNG(4)
	f := GenFamilyGraph(20, g)
	// Every non-root person has at least one parent.
	for child := 1; child < f.N; child++ {
		has := false
		for p := 0; p < f.N; p++ {
			if f.Parent[p][child] {
				has = true
			}
		}
		if !has {
			t.Fatalf("person %d has no parent", child)
		}
	}
	// Parent relation must be acyclic (parents precede children by construction).
	for a := 0; a < f.N; a++ {
		for b := 0; b <= a; b++ {
			if f.Parent[a][b] {
				t.Fatalf("parent edge %d→%d violates generation order", a, b)
			}
		}
	}
}

func TestGrandparentComposition(t *testing.T) {
	f := &FamilyGraph{N: 3, Parent: [][]bool{
		{false, true, false},
		{false, false, true},
		{false, false, false},
	}}
	gp := f.Grandparent()
	if !gp[0][2] {
		t.Fatal("0 should be grandparent of 2")
	}
	if gp[0][1] || gp[1][2] {
		t.Fatal("direct parents are not grandparents")
	}
}

func TestGenImagePair(t *testing.T) {
	g := tensor.NewRNG(6)
	p := GenImagePair(32, 5, g)
	if p.Source.Dim(2) != 32 || p.Target.Dim(1) != 3 {
		t.Fatalf("image shapes: %v %v", p.Source.Shape(), p.Target.Shape())
	}
	// Domains must differ in appearance statistics: the mean pixel of the
	// (equally sized) target exceeds the source's.
	if d := (p.Target.Sum() - p.Source.Sum()) / float32(p.Source.Size()); d < 0.05 {
		t.Fatalf("domain gap too small: %v", d)
	}
}

func TestGenConceptGrid(t *testing.T) {
	g := tensor.NewRNG(7)
	for _, name := range ConceptNames() {
		c := GenConceptGrid(32, name, g)
		if c.Image.Sum() <= 0 {
			t.Fatalf("concept %s rendered blank", name)
		}
		if c.Concept != name {
			t.Fatalf("concept label = %s", c.Concept)
		}
	}
}

func TestGenConceptGridUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenConceptGrid(16, "spiral", tensor.NewRNG(8))
}

func TestConceptsDistinguishable(t *testing.T) {
	g := tensor.NewRNG(9)
	a := GenConceptGrid(32, "rect", g)
	b := GenConceptGrid(32, "cross", g)
	same := true
	for i := range a.Image.Data() {
		if a.Image.Data()[i] != b.Image.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different concepts rendered identically")
	}
}
