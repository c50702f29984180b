// Package datasets generates the synthetic evaluation data for the
// workloads that are not RPM-based: knowledge bases for LNN (LUBM/TPTP
// stand-in), tabular groundings for LTN (UCI stand-in), family graphs and
// sorting instances for NLM, unpaired image pairs for VSAIT
// (GTA/Cityscapes stand-in), and hierarchical concept grids for ZeroC.
//
// Sizes and structure follow the source papers' configurations scaled to
// laptop scale; only shapes and access patterns matter for the
// characterization (see DESIGN.md, substitutions).
package datasets

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/logic"
	"github.com/neurosym/nsbench/internal/tensor"
)

// KnowledgeBase is a typed universe with asserted facts and FOL rules,
// shaped like a miniature LUBM benchmark instance.
type KnowledgeBase struct {
	Constants []string
	Facts     *logic.FactBase
	Rules     []logic.Formula
	// Queries are ground atoms whose truth the reasoner must derive.
	Queries []logic.Formula
}

// GenKnowledgeBase builds a university-domain KB with n entities:
// professors, students, courses, with teaching/advising/enrollment
// relations and taxonomy rules.
func GenKnowledgeBase(n int, g *tensor.RNG) *KnowledgeBase {
	if n < 6 {
		n = 6
	}
	kb := &KnowledgeBase{Facts: logic.NewFactBase()}
	third := n / 3
	profs := make([]string, 0, third)
	students := make([]string, 0, third)
	courses := make([]string, 0, n-2*third)
	for i := 0; i < third; i++ {
		p := fmt.Sprintf("prof%d", i)
		profs = append(profs, p)
		kb.Facts.Assert("professor", 1, p)
		kb.Facts.Assert("person", 1, p)
	}
	for i := 0; i < third; i++ {
		s := fmt.Sprintf("student%d", i)
		students = append(students, s)
		kb.Facts.Assert("student", 1, s)
		kb.Facts.Assert("person", 1, s)
	}
	for i := 0; i < n-2*third; i++ {
		c := fmt.Sprintf("course%d", i)
		courses = append(courses, c)
		kb.Facts.Assert("course", 1, c)
	}
	kb.Constants = append(append(append([]string{}, profs...), students...), courses...)

	// Relations: every course taught by a professor; students enroll in
	// 1-3 courses; professors advise some students.
	for _, c := range courses {
		kb.Facts.Assert("teaches", 1, profs[g.Intn(len(profs))], c)
	}
	for _, s := range students {
		k := 1 + g.Intn(3)
		for j := 0; j < k && j < len(courses); j++ {
			kb.Facts.Assert("takes", 1, s, courses[g.Intn(len(courses))])
		}
		if g.Float64() < 0.7 {
			kb.Facts.Assert("advises", 1, profs[g.Intn(len(profs))], s)
		}
	}

	// Taxonomy and derivation rules (the LNN formula set).
	x, y, c := logic.V("x"), logic.V("y"), logic.V("c")
	kb.Rules = []logic.Formula{
		logic.Forall("x", logic.Implies(logic.Pred("professor", x), logic.Pred("faculty", x))),
		logic.Forall("x", logic.Implies(logic.Pred("faculty", x), logic.Pred("employee", x))),
		logic.Forall("x", logic.Implies(logic.Pred("student", x), logic.Pred("person", x))),
		logic.Forall("x", logic.Forall("y", logic.Implies(
			logic.And(logic.Pred("advises", x, y), logic.Pred("student", y)),
			logic.Pred("mentor", x)))),
		logic.Forall("x", logic.Forall("c", logic.Forall("y", logic.Implies(
			logic.And(logic.Pred("teaches", x, c), logic.Pred("takes", y, c)),
			logic.Pred("instructs", x, y))))),
	}
	_ = c
	for i := 0; i < len(profs) && i < 4; i++ {
		kb.Queries = append(kb.Queries,
			logic.Pred("employee", logic.C(profs[i])),
			logic.Pred("mentor", logic.C(profs[i])))
	}
	return kb
}

// Tabular is a labelled point set for LTN's supervised grounding tasks.
type Tabular struct {
	X     *tensor.Tensor // n × d features
	Y     []int          // class labels
	Dim   int
	Class int
}

// GenTabular draws n points in d dimensions from `classes` Gaussian blobs,
// the shape of the UCI-style classification tasks LTN is evaluated on.
func GenTabular(n, d, classes int, g *tensor.RNG) *Tabular {
	t := &Tabular{X: tensor.New(n, d), Y: make([]int, n), Dim: d, Class: classes}
	centers := g.Normal(0, 3, classes, d)
	for i := 0; i < n; i++ {
		c := g.Intn(classes)
		t.Y[i] = c
		for j := 0; j < d; j++ {
			t.X.Data()[i*d+j] = centers.At(c, j) + float32(g.Rand().NormFloat64())*0.7
		}
	}
	return t
}

// FamilyGraph is an NLM relational-reasoning instance: `N` people with
// parent relations; the target predicates (grandparent, sibling) are
// derivable by two-hop composition.
type FamilyGraph struct {
	N      int
	Parent [][]bool // Parent[i][j]: i is a parent of j
}

// GenFamilyGraph builds a random forest of families over n people.
func GenFamilyGraph(n int, g *tensor.RNG) *FamilyGraph {
	f := &FamilyGraph{N: n, Parent: make([][]bool, n)}
	for i := range f.Parent {
		f.Parent[i] = make([]bool, n)
	}
	// People are ordered by generation; each non-root gets 1-2 parents
	// from the preceding cohort.
	for child := 1; child < n; child++ {
		lo := child - 4
		if lo < 0 {
			lo = 0
		}
		numParents := 1 + g.Intn(2)
		for k := 0; k < numParents; k++ {
			p := lo + g.Intn(child-lo)
			f.Parent[p][child] = true
		}
	}
	return f
}

// Grandparent returns the ground-truth grandparent relation.
func (f *FamilyGraph) Grandparent() [][]bool {
	gp := make([][]bool, f.N)
	for i := range gp {
		gp[i] = make([]bool, f.N)
	}
	for a := 0; a < f.N; a++ {
		for b := 0; b < f.N; b++ {
			if !f.Parent[a][b] {
				continue
			}
			for c := 0; c < f.N; c++ {
				if f.Parent[b][c] {
					gp[a][c] = true
				}
			}
		}
	}
	return gp
}

// ImagePair is an unpaired translation instance: a source-domain and a
// target-domain image with shared layout but different texture statistics —
// the structure of the GTA→Cityscapes task.
type ImagePair struct {
	Source, Target *tensor.Tensor // 1×C×H×W each
}

// GenImagePair renders a piecewise-constant layout of k regions, then
// textures it with domain-specific noise and gain. Source and target share
// the layout (semantics) but differ in appearance, so semantic flipping is
// detectable.
func GenImagePair(size, regions int, g *tensor.RNG) ImagePair {
	layout := make([]int, size*size)
	// Random axis-aligned region seeds grown row-major.
	for i := range layout {
		layout[i] = g.Intn(regions)
	}
	// Smooth the layout with a few majority passes to form contiguous regions.
	for pass := 0; pass < 2; pass++ {
		for y := 1; y < size-1; y++ {
			for x := 1; x < size-1; x++ {
				layout[y*size+x] = layout[(y-1)*size+x]
			}
		}
	}
	src := tensor.New(1, 3, size, size)
	dst := tensor.New(1, 3, size, size)
	for c := 0; c < 3; c++ {
		for i, r := range layout {
			base := float32(r+1) / float32(regions+1)
			src.Data()[c*size*size+i] = base*0.8 + 0.1*float32(g.Rand().NormFloat64())
			dst.Data()[c*size*size+i] = base*0.5 + 0.3 + 0.05*float32(g.Rand().NormFloat64())
		}
	}
	return ImagePair{Source: src, Target: dst}
}

// ConceptGrid is a ZeroC instance: a binary image containing a hierarchical
// concept composed of primitive strokes (lines), plus the identity of the
// composed concept.
type ConceptGrid struct {
	Image   *tensor.Tensor // 1×1×H×W
	Concept string         // e.g. "Eshape", "Fshape", "rect"
}

// ConceptNames lists the hierarchical concepts ZeroC must recognize.
func ConceptNames() []string { return []string{"rect", "Eshape", "Fshape", "Tshape", "cross"} }

// GenConceptGrid renders one concept at a random offset.
func GenConceptGrid(size int, concept string, g *tensor.RNG) ConceptGrid {
	img := tensor.New(1, 1, size, size)
	d := img.Data()
	ox, oy := g.Intn(size/3), g.Intn(size/3)
	L := size / 2
	hline := func(x, y, l int) {
		for i := 0; i < l; i++ {
			if y < size && x+i < size {
				d[y*size+x+i] = 1
			}
		}
	}
	vline := func(x, y, l int) {
		for i := 0; i < l; i++ {
			if y+i < size && x < size {
				d[(y+i)*size+x] = 1
			}
		}
	}
	switch concept {
	case "rect":
		hline(ox, oy, L)
		hline(ox, oy+L-1, L)
		vline(ox, oy, L)
		vline(ox+L-1, oy, L)
	case "Eshape":
		vline(ox, oy, L)
		hline(ox, oy, L/2)
		hline(ox, oy+L/2, L/2)
		hline(ox, oy+L-1, L/2)
	case "Fshape":
		vline(ox, oy, L)
		hline(ox, oy, L/2)
		hline(ox, oy+L/2, L/2)
	case "Tshape":
		hline(ox, oy, L)
		vline(ox+L/2, oy, L)
	case "cross":
		hline(ox, oy+L/2, L)
		vline(ox+L/2, oy, L)
	default:
		panic(fmt.Sprintf("datasets: unknown concept %q", concept))
	}
	return ConceptGrid{Image: img, Concept: concept}
}
