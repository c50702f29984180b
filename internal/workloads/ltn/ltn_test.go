package ltn

import (
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestSatisfiabilityHighAfterTraining(t *testing.T) {
	w := New(Config{Samples: 128, Seed: 2})
	e := ops.New()
	sat, err := w.Satisfiability(e)
	if err != nil {
		t.Fatal(err)
	}
	if sat < 0.6 || sat > 1 {
		t.Fatalf("satisfiability = %v, want in (0.6, 1]", sat)
	}
}

func TestQueryAccuracy(t *testing.T) {
	w := New(Config{Samples: 200, Seed: 4})
	if acc := w.QueryAccuracy(); acc < 0.8 {
		t.Fatalf("query accuracy = %v, want >= 0.8 on separable blobs", acc)
	}
}

// TestPhaseSplitBalanced reports the host's measured symbolic share of a
// default run. The paper puts LTN at roughly half neural, half symbolic;
// the wall-clock share moves with CPU contention, so this test only logs
// it, and TestProjectedPhaseSplitBalanced gates the claim.
func TestPhaseSplitBalanced(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	t.Logf("host symbolic share = %.3f (the projected sibling's band: 0.2–0.85)", e.Trace().PhaseShare(trace.Symbolic))
}

// TestProjectedPhaseSplitBalanced is the deterministic sibling of
// TestPhaseSplitBalanced: the default run projected onto the Xeon Silver
// 4114 model, whose times depend only on the recorded shapes and costs,
// must keep LTN inside the same balanced band. The projection reads
// 0.792 symbolic; the band's upper edge, 0.85, leaves it 0.058 of room.
// (The GPU models project LTN's many small symbolic kernels to ~0.96,
// launch-bound, so the CPU model is the one the band describes.)
func TestProjectedPhaseSplitBalanced(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	share := hwsim.XeonSilver4114.ProjectTrace(e.Trace()).PhaseShare(trace.Symbolic)
	if share < 0.2 || share > 0.85 {
		t.Fatalf("Xeon-projected symbolic share = %v, want balanced (0.2–0.85; measured 0.792)", share)
	}
}

// TestNeuralDominatedByMatMul reports the host's measured MatMul share of
// the neural phase (Fig. 3a). The wall-clock share moves with CPU
// contention, so this test only logs it, and
// TestNeuralFLOPsDominatedByMatMul gates the claim.
func TestNeuralDominatedByMatMul(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	t.Logf("host neural MatMul share = %.3f", e.Trace().CategoryShare(trace.Neural)[trace.MatMul])
}

// TestNeuralFLOPsDominatedByMatMul is the deterministic sibling of
// TestNeuralDominatedByMatMul: the same Fig. 3a claim over the neural
// phase's analytic FLOPs, which do not move with CPU contention. MatMul
// carries 0.950 of them at defaults.
func TestNeuralFLOPsDominatedByMatMul(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	var matmul, total int64
	for _, ev := range e.Trace().Events {
		if ev.Phase != trace.Neural {
			continue
		}
		total += ev.FLOPs
		if ev.Category == trace.MatMul {
			matmul += ev.FLOPs
		}
	}
	if share := float64(matmul) / float64(total); total == 0 || share < 0.5 {
		t.Fatalf("neural MatMul FLOP share = %.3f of %d FLOPs, want dominant (Fig. 3a; measured 0.950)", share, total)
	}
}

func TestStages(t *testing.T) {
	w := New(Config{})
	e := ops.New()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, s := range e.Trace().ByStage() {
		stages[s.Stage] = true
	}
	for _, want := range []string{"axiom_membership", "axiom_exclusion", "axiom_existence", "satisfiability"} {
		if !stages[want] {
			t.Fatalf("stage %q missing; have %v", want, stages)
		}
	}
}

func TestUntrainedSatLower(t *testing.T) {
	trained := New(Config{Samples: 128, Seed: 6})
	untrained := New(Config{Samples: 128, Seed: 6, Epochs: 1})
	st, _ := trained.Satisfiability(ops.New())
	su, _ := untrained.Satisfiability(ops.New())
	if st < su-0.05 {
		t.Fatalf("training should not reduce satisfiability: trained=%v vs untrained=%v", st, su)
	}
}

func TestNameCategory(t *testing.T) {
	w := New(Config{Samples: 32, Epochs: 1})
	if w.Name() != "LTN" || w.Category() != "Neuro_Symbolic" {
		t.Fatal("identity wrong")
	}
}

func TestFitDifferentiableImprovesSatisfiability(t *testing.T) {
	// Start from a nearly untrained head (one SGD epoch) and train by
	// maximizing theory satisfiability with autograd.
	w := New(Config{Samples: 160, Epochs: 1, Seed: 8})
	before, after := w.FitDifferentiable(150, 2.0)
	if after <= before {
		t.Fatalf("satisfiability did not improve: %v -> %v", before, after)
	}
	if after < 0.7 {
		t.Fatalf("post-training satisfiability = %v, want >= 0.7", after)
	}
	// The fitted head must also answer queries well.
	if acc := w.QueryAccuracy(); acc < 0.8 {
		t.Fatalf("query accuracy after differentiable fit = %v", acc)
	}
	// And the profiled theory evaluation agrees with the training-side sat.
	sat, err := w.Satisfiability(ops.New())
	if err != nil {
		t.Fatal(err)
	}
	if sat < 0.6 {
		t.Fatalf("profiled satisfiability = %v", sat)
	}
}
