package lnn

import (
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestInferenceDerivesQueries(t *testing.T) {
	w := New(Config{Entities: 24, Seed: 3})
	e := ops.New()
	res, err := w.Infer(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no query results")
	}
	// Every professor is an employee via the two-hop taxonomy chain
	// professor → faculty → employee; that requires iterative inference.
	for q, ok := range res {
		if strings.HasPrefix(q, "employee(") && !ok {
			t.Fatalf("query %s should be derived true", q)
		}
	}
}

func TestMentorDerivation(t *testing.T) {
	w := New(Config{Entities: 30, Seed: 5})
	e := ops.New()
	res, err := w.Infer(e)
	if err != nil {
		t.Fatal(err)
	}
	// mentor(x) holds when x advises some student; verify against the KB.
	anyMentor := false
	for q, ok := range res {
		if strings.HasPrefix(q, "mentor(") {
			name := strings.TrimSuffix(strings.TrimPrefix(q, "mentor("), ")")
			advisesSomeone := false
			for _, c := range w.kb.Constants {
				if w.kb.Facts.Truth("advises", []string{name, c}) > 0 &&
					w.kb.Facts.Truth("student", []string{c}) > 0 {
					advisesSomeone = true
				}
			}
			if ok != advisesSomeone {
				t.Fatalf("mentor(%s) = %v, ground truth %v", name, ok, advisesSomeone)
			}
			if ok {
				anyMentor = true
			}
		}
	}
	if !anyMentor {
		t.Fatal("expected at least one derived mentor")
	}
}

func TestBothPhasesRecorded(t *testing.T) {
	w := New(Config{Entities: 24})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	if tr.PhaseDuration(trace.Neural) == 0 || tr.PhaseDuration(trace.Symbolic) == 0 {
		t.Fatal("both phases must record time")
	}
	// The LNN neural profile is eltwise + data movement heavy (Fig. 3a).
	br := tr.CategoryBreakdown(trace.Neural)
	if br[trace.VectorEltwise] == 0 {
		t.Fatal("neural phase must contain element-wise bound arithmetic")
	}
	if br[trace.DataMovement] == 0 {
		t.Fatal("neural phase must contain bidirectional writeback movement")
	}
	// The symbolic phase is gather/transform heavy.
	bs := tr.CategoryBreakdown(trace.Symbolic)
	if bs[trace.DataTransform] == 0 {
		t.Fatal("symbolic phase must contain grounding gathers")
	}
}

func TestStages(t *testing.T) {
	w := New(Config{Entities: 24})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, s := range e.Trace().ByStage() {
		stages[s.Stage] = true
	}
	for _, want := range []string{"grounding", "rule_scheduling", "convergence", "query"} {
		if !stages[want] {
			t.Fatalf("stage %q missing; have %v", want, stages)
		}
	}
}

func TestSymbolicToNeuralDependency(t *testing.T) {
	// LNN compiles symbolic knowledge into the neural computation: the
	// graph must contain symbolic→neural edges (Fig. 4, left pattern).
	w := New(Config{Entities: 24})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	g := trace.BuildGraph(e.Trace())
	if _, s2n := g.CrossPhaseEdges(); s2n == 0 {
		t.Fatal("expected symbolic→neural dependencies")
	}
}

func TestConvergenceStable(t *testing.T) {
	// Running inference twice on fresh engines must give identical answers.
	w1 := New(Config{Entities: 24, Seed: 9})
	w2 := New(Config{Entities: 24, Seed: 9})
	r1, _ := w1.Infer(ops.New())
	r2, _ := w2.Infer(ops.New())
	if len(r1) != len(r2) {
		t.Fatal("result sizes differ")
	}
	for k, v := range r1 {
		if r2[k] != v {
			t.Fatalf("non-deterministic inference for %s", k)
		}
	}
}

func TestNameCategory(t *testing.T) {
	w := New(Config{Entities: 12})
	if w.Name() != "LNN" || w.Category() != "Neuro:Symbolic→Neuro" {
		t.Fatal("identity wrong")
	}
}
