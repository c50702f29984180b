package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// detView is the deterministic subset of a Report: every field that is a
// pure function of the workload's seeded construction, excluding anything
// derived from wall-clock durations (latencies, time shares, projections).
type detView struct {
	Name              string             `json:"name"`
	Category          string             `json:"category"`
	SymbolicFLOPShare float64            `json:"symbolic_flop_share"`
	MovementH2DPct    float64            `json:"movement_h2d_pct"`
	Memory            MemoryReport       `json:"memory"`
	Roofline          []detRoofline      `json:"roofline"`
	Dataflow          detDataflow        `json:"dataflow"`
	Stages            []trace.StageStats `json:"stages"`
}

type detRoofline struct {
	Name string  `json:"name"`
	AI   float64 `json:"arithmetic_intensity"`
}

type detDataflow struct {
	Events           int `json:"events"`
	Edges            int `json:"edges"`
	Depth            int `json:"depth"`
	MaxWidth         int `json:"max_width"`
	NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
	SymbolicToNeural int `json:"symbolic_to_neural_edges"`
}

// detJSON marshals the deterministic view for byte comparison. Stage Dur
// is wall time and is zeroed, and SequentialFraction is omitted because it
// is duration-weighted (critical-path time over total time); everything
// else is kept.
func detJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	v := detView{
		Name:              r.Name,
		Category:          r.Category,
		SymbolicFLOPShare: r.SymbolicFLOPShare,
		MovementH2DPct:    r.MovementH2DPct,
		Memory:            r.Memory,
		Dataflow: detDataflow{
			Events:           r.Dataflow.Events,
			Edges:            r.Dataflow.Edges,
			Depth:            r.Dataflow.Depth,
			MaxWidth:         r.Dataflow.MaxWidth,
			NeuralToSymbolic: r.Dataflow.NeuralToSymbolic,
			SymbolicToNeural: r.Dataflow.SymbolicToNeural,
		},
	}
	for _, p := range r.Roofline {
		v.Roofline = append(v.Roofline, detRoofline{Name: p.Name, AI: p.AI})
	}
	for _, s := range r.Stages {
		s.Dur = 0
		v.Stages = append(v.Stages, s)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal deterministic view: %v", err)
	}
	return b
}

// TestCharacterizeBatchMatchesSequential is the batching correctness
// property: for every registered workload, on both backends, a batch of n
// splits into per-item reports whose deterministic fields are
// byte-identical to n sequential solo characterizations on fresh
// instances, and whose per-item traces match the solo traces event for
// event (modulo wall time and tensor IDs). Native workloads exercise the
// uniform-split path; the rest run n solo passes.
func TestCharacterizeBatchMatchesSequential(t *testing.T) {
	const n = 2
	backends := []ops.Config{
		{Backend: ops.BackendSerial},
		{Backend: ops.BackendParallel, Workers: 4},
	}
	for _, name := range WorkloadNames() {
		for _, eng := range backends {
			name, eng := name, eng
			t.Run(fmt.Sprintf("%s/%s", name, eng.Backend), func(t *testing.T) {
				t.Parallel()
				pool := eng.NewPool()
				defer pool.Close()
				var want [][]byte
				var solo []*Report
				for i := 0; i < n; i++ {
					w, err := BuildWorkload(name)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					r, err := Characterize(w, Options{Pool: pool})
					if err != nil {
						t.Fatalf("sequential run %d: %v", i, err)
					}
					solo = append(solo, r)
					want = append(want, detJSON(t, r))
				}

				w, err := BuildWorkload(name)
				if err != nil {
					t.Fatalf("build batch: %v", err)
				}
				if _, native := w.(BatchWorkload); native {
					t.Logf("%s: native batch path", name)
				}
				reports, err := CharacterizeBatch(w, n, Options{Pool: pool})
				if err != nil {
					t.Fatalf("batch run: %v", err)
				}
				if len(reports) != n {
					t.Fatalf("got %d reports for batch of %d", len(reports), n)
				}
				for i, r := range reports {
					sameTraceModuloTiming(t, fmt.Sprintf("item %d", i), r.Trace, solo[i].Trace)
					if got := detJSON(t, r); string(got) != string(want[i]) {
						t.Errorf("item %d deterministic report fields diverge from sequential run:\nbatch: %s\nsolo:  %s", i, got, want[i])
					}
				}
			})
		}
	}
}
