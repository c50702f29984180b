package core

import (
	"fmt"
	"io"
	"time"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/noc"
	"github.com/neurosym/nsbench/internal/quant"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/schedule"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Recommendations quantifies the paper's cross-layer optimization
// recommendations as executable ablations over one recorded NVSA trace:
//
//	Rec 3 (algorithm): INT8 quantization of the codebook cleanup.
//	Rec 5 (system):    parallel scheduling of the operator graph.
//	Rec 2/6 (arch):    a custom neuro-symbolic accelerator model.
//	Rec 7 (alg+arch):  sparsity-aware execution of probability tensors.
type Recommendations struct {
	// Rec 5: scheduling sweep over the dependency graph.
	Scheduling []schedule.Result
	// Rec 2/6: projected end-to-end latency, RTX 2080 Ti vs NS-Accel.
	GPUTotal    time.Duration
	AccelTotal  time.Duration
	AccelSpeedX float64
	// Rec 3: quantized codebook cleanup.
	Quant quant.Savings
	// Rec 7: sparsity-aware joint expansion at the measured PMF sparsity.
	Sparse quant.Savings
	// Rec 6 (NoC): interconnect communication cost of the operator graph
	// under phase-partitioned placement at increasing link bandwidths.
	NoC []noc.Analysis
}

// RecommendationAblations runs the ablation suite against a fresh NVSA
// trace on the given schedule worker counts.
func RecommendationAblations(units []int, opts Options) (*Recommendations, error) {
	w, err := BuildWorkload("NVSA")
	if err != nil {
		return nil, err
	}
	tr, err := Execute(w, opts)
	if err != nil {
		return nil, err
	}

	rec := &Recommendations{}
	// Rec 5: schedule the graph on the GPU cost model so the makespans are
	// device times, not host times.
	cost := func(ev *trace.Event) time.Duration { return hwsim.RTX2080Ti.EventTime(ev) }
	rec.Scheduling = schedule.Sweep(tr, units, schedule.WithCost(cost))

	// Rec 2/6: device comparison at equal raw throughput.
	rec.GPUTotal = hwsim.RTX2080Ti.ProjectTrace(tr).Total
	rec.AccelTotal = hwsim.NSAccel.ProjectTrace(tr).Total
	if rec.AccelTotal > 0 {
		rec.AccelSpeedX = float64(rec.GPUTotal) / float64(rec.AccelTotal)
	}

	// Rec 3: INT8 codebook cleanup (the dominant symbolic kernel):
	// 2700-combination joint codebook at the default dimensionality.
	rec.Quant = quant.QuantSavings(2700, 4096)

	// Rec 7: sparsity-aware joint expansion at realistic PMF sparsity.
	a := quant.ToSparse(noisyPMF(raven.Levels(raven.Number), 0.01), 0.005)
	b := quant.ToSparse(noisyPMF(raven.Levels(raven.Color), 0.01), 0.005)
	rec.Sparse = quant.JointSavings(a, b)

	// Rec 6 (NoC): phase-partitioned heterogeneous floorplan on a 4×4 mesh
	// at three link bandwidths.
	for _, bw := range []float64{64, 256, 1024} {
		m := noc.Mesh{K: 4, LinkBWGBs: bw, HopNs: 5}
		rec.NoC = append(rec.NoC, noc.Analyze(tr, m, noc.PhasePartition(m)))
	}
	return rec, nil
}

// noisyPMF builds a one-hot PMF with a uniform noise floor.
func noisyPMF(levels int, noise float32) *tensor.Tensor {
	p := tensor.New(levels)
	for i := range p.Data() {
		p.Data()[i] = noise / float32(levels)
	}
	p.Data()[0] += 1 - noise
	return p
}

// RenderRecommendations prints the ablation results.
func RenderRecommendations(w io.Writer, r *Recommendations) {
	fmt.Fprintln(w, "Optimization recommendations — quantified ablations (NVSA trace)")
	fmt.Fprintln(w, "\nRec 5 — adaptive parallel scheduling (RTX 2080 Ti cost model):")
	fmt.Fprintf(w, "%8s %14s %10s %12s %12s\n", "units", "makespan", "speedup", "efficiency", "CP-bound%")
	for _, s := range r.Scheduling {
		fmt.Fprintf(w, "%8d %14v %9.2fx %11.1f%% %11.1f%%\n",
			s.Units, s.Makespan, s.Speedup, 100*s.Efficiency, s.BoundTightPct)
	}
	fmt.Fprintln(w, "\nRec 2/6 — custom neuro-symbolic architecture (equal raw FLOPs & bandwidth):")
	fmt.Fprintf(w, "%-28s %14v\n", "RTX 2080 Ti", r.GPUTotal)
	fmt.Fprintf(w, "%-28s %14v  (%.2fx speedup)\n", hwsim.NSAccel.Name, r.AccelTotal, r.AccelSpeedX)
	fmt.Fprintln(w, "\nRec 3 — INT8 quantization of the joint-codebook cleanup:")
	fmt.Fprintf(w, "  traffic %.2fx smaller (%s → %s per query set)\n",
		r.Quant.BytesReductionX(), fmtBytes(r.Quant.DenseBytes), fmtBytes(r.Quant.OptBytes))
	fmt.Fprintln(w, "\nRec 7 — sparsity-aware probability expansion (measured PMF sparsity):")
	fmt.Fprintf(w, "  %.0fx fewer multiply-adds, %.1fx less traffic per joint\n",
		r.Sparse.OpsReductionX(), r.Sparse.BytesReductionX())
	fmt.Fprintln(w, "\nRec 6 (NoC) — phase-partitioned 4×4 mesh, operator-graph traffic:")
	for _, a := range r.NoC {
		fmt.Fprintf(w, "  %s\n", a)
	}
}
