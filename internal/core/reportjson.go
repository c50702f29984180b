package core

import (
	"encoding/json"
	"io"

	"github.com/neurosym/nsbench/internal/trace"
)

// reportJSON is the machine-readable summary form of a Report (the raw
// trace is exported separately via trace.WriteJSON).
type reportJSON struct {
	Name              string                        `json:"name"`
	Category          string                        `json:"category"`
	Device            string                        `json:"device"`
	TotalNs           int64                         `json:"total_ns"`
	NeuralNs          int64                         `json:"neural_ns"`
	SymbolicNs        int64                         `json:"symbolic_ns"`
	SymbolicShare     float64                       `json:"symbolic_share"`
	SymbolicFLOPShare float64                       `json:"symbolic_flop_share"`
	MovementShare     float64                       `json:"movement_share"`
	MovementH2DPct    float64                       `json:"movement_h2d_pct"`
	CategoryShare     map[string]map[string]float64 `json:"category_share"`
	Memory            MemoryReport                  `json:"memory"`
	Roofline          []rooflineJSON                `json:"roofline"`
	Dataflow          dataflowJSON                  `json:"dataflow"`
	Stages            []stageJSON                   `json:"stages,omitempty"`
	Projections       []projJSON                    `json:"projections,omitempty"`
}

type rooflineJSON struct {
	Name       string  `json:"name"`
	AI         float64 `json:"arithmetic_intensity"`
	PerfGFLOPs float64 `json:"perf_gflops"`
	Bound      string  `json:"bound"`
	CeilingPct float64 `json:"ceiling_pct"`
}

type dataflowJSON struct {
	Events             int                `json:"events"`
	Edges              int                `json:"edges"`
	Depth              int                `json:"depth"`
	MaxWidth           int                `json:"max_width"`
	SequentialFraction float64            `json:"sequential_fraction"`
	CriticalPathNs     int64              `json:"critical_path_ns"`
	CriticalPathPhase  map[string]float64 `json:"critical_path_phase"`
	NeuralToSymbolic   int                `json:"neural_to_symbolic_edges"`
	SymbolicToNeural   int                `json:"symbolic_to_neural_edges"`
}

type stageJSON struct {
	Stage    string  `json:"stage"`
	DurNs    int64   `json:"dur_ns"`
	Events   int     `json:"events"`
	Sparsity float64 `json:"sparsity"`
}

type projJSON struct {
	Device        string  `json:"device"`
	TotalNs       int64   `json:"total_ns"`
	SymbolicShare float64 `json:"symbolic_share"`
	EnergyJ       float64 `json:"energy_j"`
}

// MarshalJSON renders the summary form — the same schema WriteJSON
// streams, without the raw trace. Map keys are sorted by encoding/json,
// so a given report always marshals to the same bytes; this is what makes
// served characterization reports cacheable byte-for-byte.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.summary())
}

// WriteJSON dumps the report summary as indented JSON (without the raw
// trace).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.summary())
}

// summary converts the report to its machine-readable form.
func (r *Report) summary() reportJSON {
	out := reportJSON{
		Name:              r.Name,
		Category:          r.Category,
		Device:            r.Device,
		TotalNs:           r.Total.Nanoseconds(),
		NeuralNs:          r.NeuralTime.Nanoseconds(),
		SymbolicNs:        r.SymbolicTime.Nanoseconds(),
		SymbolicShare:     r.SymbolicShare,
		SymbolicFLOPShare: r.SymbolicFLOPShare,
		MovementShare:     r.MovementShare,
		MovementH2DPct:    r.MovementH2DPct,
		CategoryShare:     map[string]map[string]float64{},
		Memory:            r.Memory,
	}
	for p, m := range r.CategoryShare {
		cs := map[string]float64{}
		for c, v := range m {
			cs[c.String()] = v
		}
		out.CategoryShare[p.String()] = cs
	}
	for _, p := range r.Roofline {
		out.Roofline = append(out.Roofline, rooflineJSON{
			Name: p.Name, AI: p.AI, PerfGFLOPs: p.PerfGFLOPs,
			Bound: p.Bound.String(), CeilingPct: p.CeilingPct,
		})
	}
	cpPhase := map[string]float64{}
	for p, v := range r.Dataflow.CriticalPathPhase {
		cpPhase[p.String()] = v
	}
	out.Dataflow = dataflowJSON{
		Events:             r.Dataflow.Events,
		Edges:              r.Dataflow.Edges,
		Depth:              r.Dataflow.Depth,
		MaxWidth:           r.Dataflow.MaxWidth,
		SequentialFraction: r.Dataflow.SequentialFraction,
		CriticalPathNs:     r.Dataflow.CriticalPathDur.Nanoseconds(),
		CriticalPathPhase:  cpPhase,
		NeuralToSymbolic:   r.Dataflow.NeuralToSymbolic,
		SymbolicToNeural:   r.Dataflow.SymbolicToNeural,
	}
	for _, s := range r.Stages {
		out.Stages = append(out.Stages, stageJSON{
			Stage: s.Stage, DurNs: s.Dur.Nanoseconds(), Events: s.Events, Sparsity: s.Sparsity,
		})
	}
	for _, p := range r.Projections {
		out.Projections = append(out.Projections, projJSON{
			Device:        p.Device.Name,
			TotalNs:       p.Total.Nanoseconds(),
			SymbolicShare: p.PhaseShare(trace.Symbolic),
			EnergyJ:       p.EnergyJ,
		})
	}
	return out
}
