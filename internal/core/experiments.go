package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/workloads/nlm"
	"github.com/neurosym/nsbench/internal/workloads/nvsa"
)

// Fig2a runs the seven-workload suite and returns one report per workload,
// in the paper's order — the end-to-end latency phase-split experiment.
func Fig2a(opts Options) ([]*Report, error) {
	var out []*Report
	for _, name := range SuiteNames() {
		w, err := BuildWorkload(name)
		if err != nil {
			return nil, err
		}
		r, err := Characterize(w, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig2bRow is one (workload, device) projection.
type Fig2bRow struct {
	Workload      string
	Device        string
	Total         time.Duration
	SymbolicShare float64
	SpeedupVsTX2  float64
	EnergyJ       float64
}

// Fig2b projects the NVSA and NLM traces onto the edge platforms — the
// cross-device latency experiment. Projections share one recorded trace per
// workload, mirroring the paper's methodology of running the same model on
// each board.
func Fig2b(opts Options) ([]Fig2bRow, error) {
	var rows []Fig2bRow
	for _, name := range []string{"NVSA", "NLM"} {
		w, err := BuildWorkload(name)
		if err != nil {
			return nil, err
		}
		tr, err := Execute(w, opts)
		if err != nil {
			return nil, err
		}
		var tx2 hwsim.Projection
		projections := make([]hwsim.Projection, 0, 3)
		for _, d := range hwsim.EdgeDevices() {
			p := d.ProjectTrace(tr)
			projections = append(projections, p)
			if d.Name == hwsim.JetsonTX2.Name {
				tx2 = p
			}
		}
		for _, p := range projections {
			rows = append(rows, Fig2bRow{
				Workload:      name,
				Device:        p.Device.Name,
				Total:         p.Total,
				SymbolicShare: p.PhaseShare(trace.Symbolic),
				SpeedupVsTX2:  p.Speedup(tx2),
				EnergyJ:       p.EnergyJ,
			})
		}
	}
	return rows, nil
}

// Fig2cRow is one RPM-task-size scalability point.
type Fig2cRow struct {
	TaskSize      string
	Total         time.Duration
	SymbolicShare float64
	ScaleVs2x2    float64
}

// Fig2c measures NVSA end-to-end latency across RPM task sizes — the
// scalability experiment showing runtime explosion under stable phase
// split. Each configuration runs three times and the minimum is kept, the
// standard noise-robust latency estimator.
func Fig2c(opts Options) ([]Fig2cRow, error) {
	var rows []Fig2cRow
	var base time.Duration
	for _, m := range []int{2, 3} {
		best := Fig2cRow{TaskSize: fmt.Sprintf("%dx%d", m, m)}
		for rep := 0; rep < 3; rep++ {
			w := nvsa.New(nvsa.Config{M: m})
			r, err := Characterize(w, opts)
			if err != nil {
				return nil, err
			}
			if best.Total == 0 || r.Total < best.Total {
				best.Total = r.Total
				best.SymbolicShare = r.SymbolicShare
			}
		}
		if m == 2 {
			base = best.Total
		}
		best.ScaleVs2x2 = float64(best.Total) / float64(base)
		rows = append(rows, best)
	}
	return rows, nil
}

// Fig5Row is one (stage, attribute) sparsity measurement.
type Fig5Row struct {
	Stage     string
	Attribute string
	Sparsity  float64
}

// Fig5 measures the sparsity of NVSA's symbolic stages per rule attribute.
func Fig5(opts Options) ([]Fig5Row, error) {
	w, err := BuildWorkload("NVSA")
	if err != nil {
		return nil, err
	}
	r, err := Characterize(w, opts)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, s := range r.Stages {
		stage, attr, found := strings.Cut(s.Stage, ":")
		if !found {
			continue
		}
		if stage != "pmf_to_vsa" && stage != "prob" && stage != "execute" {
			continue
		}
		rows = append(rows, Fig5Row{Stage: stage, Attribute: attr, Sparsity: s.Sparsity})
	}
	return rows, nil
}

// Tab4 derives the Table-IV hardware-counter rows from an NVSA trace on
// the reference GPU model. Each row aggregates the representative events of
// its kernel class: the neural sgemm_nn row includes convolutions (lowered
// to implicit GEMM on the measured GPUs) and dense GEMMs of the perception
// frontend; the symbolic rows take the backend's element-wise kernels.
func Tab4(device hwsim.Device, opts Options) ([]hwsim.KernelStats, error) {
	w, err := BuildWorkload("NVSA")
	if err != nil {
		return nil, err
	}
	tr, err := Execute(w, opts)
	if err != nil {
		return nil, err
	}
	pick := func(phase trace.Phase, kernels ...string) []trace.Event {
		var out []trace.Event
		for _, ev := range tr.Events {
			if ev.Phase != phase {
				continue
			}
			for _, k := range kernels {
				if ev.Kernel == k {
					out = append(out, ev)
					break
				}
			}
		}
		return out
	}
	rows := []hwsim.KernelStats{
		device.KernelStats("sgemm_nn", pick(trace.Neural, "conv2d", "sgemm_nn")),
		device.KernelStats("relu_nn", pick(trace.Neural, "relu_nn")),
		// The symbolic streaming-vector kernels: codebook-cleanup GEMVs
		// stream the whole codebook per query on the modeled devices and
		// are the archetypal memory-bound vectorized kernel of NVSA's
		// backend. The host runs each cleanup stage as one batched GEMM
		// (Engine.MatVecs), so the measured fields of this row
		// (MeasuredTime, AchievedGFLOPs, RooflinePct) come from the batched
		// run split evenly across the per-query events, not from a
		// per-query streaming rate.
		device.KernelStats("vectorized_elem", pick(trace.Symbolic, "sgemv", "vectorized_elem")),
		device.KernelStats("elementwise", pick(trace.Symbolic, "elementwise", "softmax", "reduce")),
	}
	return rows, nil
}

// ScalabilityRow is one point of the extended NVSA dimension sweep.
type ScalabilityRow struct {
	Dim           int
	Total         time.Duration
	SymbolicShare float64
}

// ScalabilitySweep extends Fig. 2c with a hypervector-dimension sweep,
// quantifying the symbolic scalability bottleneck (Takeaway 2).
func ScalabilitySweep(dims []int, opts Options) ([]ScalabilityRow, error) {
	var rows []ScalabilityRow
	for _, d := range dims {
		w := nvsa.New(nvsa.Config{Dim: d})
		r, err := Characterize(w, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalabilityRow{Dim: d, Total: r.Total, SymbolicShare: r.SymbolicShare})
	}
	return rows, nil
}

// NLMScaleRow is one point of the NLM universe-size sweep.
type NLMScaleRow struct {
	Objects       int
	Total         time.Duration
	SymbolicShare float64
}

// NLMScaleSweep measures NLM latency across universe sizes (the
// generalization-scalability companion to Fig. 2c).
func NLMScaleSweep(sizes []int, opts Options) ([]NLMScaleRow, error) {
	var rows []NLMScaleRow
	for _, n := range sizes {
		w := nlm.New(nlm.Config{Objects: n})
		r, err := Characterize(w, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NLMScaleRow{Objects: n, Total: r.Total, SymbolicShare: r.SymbolicShare})
	}
	return rows, nil
}
