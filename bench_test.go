// Benchmark harness: one Benchmark family per table/figure of the paper.
// Run everything with
//
//	go test -bench=. -benchmem
//
// The benchmarks measure end-to-end inference of each workload (Fig. 2a),
// the scalability sweeps (Fig. 2c and the extended sweeps), the symbolic
// kernel primitives behind Fig. 3/Tab. IV, and the analysis machinery
// itself. Custom metrics (symbolic share, sparsity, projected latencies)
// are reported through b.ReportMetric so the paper's series appear directly
// in the benchmark output.
package nsbench_test

import (
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/cachesim"
	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/quant"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/schedule"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/workloads/abduction"
	"github.com/neurosym/nsbench/internal/workloads/nlm"
	"github.com/neurosym/nsbench/internal/workloads/nvsa"
	"github.com/neurosym/nsbench/internal/workloads/vsait"
)

// benchWorkload runs one end-to-end inference per iteration and reports the
// symbolic time share as a custom metric.
func benchWorkload(b *testing.B, name string) {
	b.Helper()
	var share float64
	for i := 0; i < b.N; i++ {
		w, err := core.BuildWorkload(name)
		if err != nil {
			b.Fatal(err)
		}
		e := ops.New()
		if err := w.Run(e); err != nil {
			b.Fatal(err)
		}
		share = e.Trace().PhaseShare(trace.Symbolic)
	}
	b.ReportMetric(100*share, "symbolic%")
}

// ---- Fig. 2a: end-to-end latency of the seven workloads -------------------

func BenchmarkFig2aLNN(b *testing.B)   { benchWorkload(b, "LNN") }
func BenchmarkFig2aLTN(b *testing.B)   { benchWorkload(b, "LTN") }
func BenchmarkFig2aNVSA(b *testing.B)  { benchWorkload(b, "NVSA") }
func BenchmarkFig2aNLM(b *testing.B)   { benchWorkload(b, "NLM") }
func BenchmarkFig2aVSAIT(b *testing.B) { benchWorkload(b, "VSAIT") }
func BenchmarkFig2aZeroC(b *testing.B) { benchWorkload(b, "ZeroC") }
func BenchmarkFig2aPrAE(b *testing.B)  { benchWorkload(b, "PrAE") }

// ---- Fig. 2b: cross-device projections ------------------------------------

func BenchmarkFig2bProjection(b *testing.B) {
	w, err := core.BuildWorkload("NVSA")
	if err != nil {
		b.Fatal(err)
	}
	e := ops.New()
	if err := w.Run(e); err != nil {
		b.Fatal(err)
	}
	tr := e.Trace()
	b.ResetTimer()
	var tx2, rtx float64
	for i := 0; i < b.N; i++ {
		tx2 = hwsim.JetsonTX2.ProjectTrace(tr).Total.Seconds()
		rtx = hwsim.RTX2080Ti.ProjectTrace(tr).Total.Seconds()
	}
	b.ReportMetric(tx2/rtx, "TX2/RTX")
}

// ---- Fig. 2c: RPM task-size scalability ------------------------------------

func benchNVSASize(b *testing.B, m int) {
	var share float64
	for i := 0; i < b.N; i++ {
		w := nvsa.New(nvsa.Config{M: m, Seed: int64(i + 1)})
		e := ops.New()
		if err := w.Run(e); err != nil {
			b.Fatal(err)
		}
		share = e.Trace().PhaseShare(trace.Symbolic)
	}
	b.ReportMetric(100*share, "symbolic%")
}

func BenchmarkFig2cNVSA2x2(b *testing.B) { benchNVSASize(b, 2) }
func BenchmarkFig2cNVSA3x3(b *testing.B) { benchNVSASize(b, 3) }

// ---- Fig. 3a/3b/3c + Fig. 4: the analysis pipeline -------------------------

func BenchmarkFig3Characterize(b *testing.B) {
	w, err := core.BuildWorkload("LNN")
	if err != nil {
		b.Fatal(err)
	}
	e := ops.New()
	if err := w.Run(e); err != nil {
		b.Fatal(err)
	}
	tr := e.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.Analyze("LNN", "x", tr, core.Options{})
		if r.Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}

func BenchmarkFig3cRooflinePlacement(b *testing.B) {
	w, err := core.BuildWorkload("LTN")
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.Characterize(w, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var bound float64
	for _, p := range r.Roofline {
		if p.Name == "LTN/symbolic/eltwise" {
			bound = p.AI
		}
	}
	b.ReportMetric(bound, "symbolicAI")
	for i := 0; i < b.N; i++ {
		_ = hwsim.RTX2080Ti.ProjectTrace(r.Trace)
	}
}

func BenchmarkFig4CriticalPath(b *testing.B) {
	w, err := core.BuildWorkload("PrAE")
	if err != nil {
		b.Fatal(err)
	}
	e := ops.New()
	if err := w.Run(e); err != nil {
		b.Fatal(err)
	}
	tr := e.Trace()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		g := trace.BuildGraph(tr)
		path, _ := g.CriticalPath()
		frac = g.PathPhaseShare(path)[trace.Symbolic]
	}
	b.ReportMetric(100*frac, "critPathSym%")
}

// ---- Fig. 5: sparsity measurement ------------------------------------------

func BenchmarkFig5Sparsity(b *testing.B) {
	var sparsity float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Fig5(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Stage == "pmf_to_vsa" && r.Attribute == "color" {
				sparsity = r.Sparsity
			}
		}
	}
	b.ReportMetric(100*sparsity, "sparsity%")
}

// ---- Scalability sweeps (Takeaway 2) ----------------------------------------

func benchNVSADim(b *testing.B, dim int) {
	for i := 0; i < b.N; i++ {
		w := nvsa.New(nvsa.Config{Dim: dim})
		e := ops.New()
		if err := w.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalabilityNVSADim1024(b *testing.B) { benchNVSADim(b, 1024) }
func BenchmarkScalabilityNVSADim2048(b *testing.B) { benchNVSADim(b, 2048) }
func BenchmarkScalabilityNVSADim4096(b *testing.B) { benchNVSADim(b, 4096) }

func benchNLMObjects(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		w := nlm.New(nlm.Config{Objects: n})
		e := ops.New()
		if err := w.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalabilityNLM16(b *testing.B) { benchNLMObjects(b, 16) }
func BenchmarkScalabilityNLM32(b *testing.B) { benchNLMObjects(b, 32) }
func BenchmarkScalabilityNLM64(b *testing.B) { benchNLMObjects(b, 64) }

// ---- Ablations: the design choices DESIGN.md calls out ----------------------

// BenchmarkAblationCircularConvFFT quantifies the FFT-vs-direct circular
// convolution choice (the NVSA binding primitive).
func BenchmarkAblationCircularConvFFT(b *testing.B) {
	g := tensor.NewRNG(1)
	x, y := g.HRRVector(4096), g.HRRVector(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.CircularConv(x, y) // power-of-two length: FFT path
	}
}

func BenchmarkAblationCircularConvDirect(b *testing.B) {
	g := tensor.NewRNG(1)
	x, y := g.HRRVector(4095), g.HRRVector(4095) // odd length: direct path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.CircularConv(x, y)
	}
}

// BenchmarkAblationVSAITDim quantifies how hyperspace dimensionality drives
// the symbolic share (the VSAIT calibration knob).
func BenchmarkAblationVSAITDim2048(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := vsait.New(vsait.Config{Dim: 2048})
		if err := w.Run(ops.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSparsityMeasurement quantifies the profiler's sparsity
// measurement overhead (off by default outside the symbolic stages).
func BenchmarkAblationSparsityMeasurement(b *testing.B) {
	g := tensor.NewRNG(2)
	x := g.Normal(0, 1, 1<<16)
	e := ops.New()
	e.MeasureSparsity(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.ReLU(x)
	}
}

// ---- Extra Table-I paradigms -------------------------------------------------

func BenchmarkExtraAlphaGo(b *testing.B)      { benchWorkload(b, "AlphaGo") }
func BenchmarkExtraGNNAttention(b *testing.B) { benchWorkload(b, "GNN+attention") }
func BenchmarkExtraNSVQA(b *testing.B)        { benchWorkload(b, "NSVQA") }

// ---- Recommendation ablations (Sec. V recommendations) -----------------------

// BenchmarkRecScheduling measures the Rec-5 list scheduler over an NVSA
// trace and reports the 8-unit speedup.
func BenchmarkRecScheduling(b *testing.B) {
	w, err := core.BuildWorkload("NVSA")
	if err != nil {
		b.Fatal(err)
	}
	e := ops.New()
	if err := w.Run(e); err != nil {
		b.Fatal(err)
	}
	tr := e.Trace()
	cost := func(ev *trace.Event) time.Duration { return hwsim.RTX2080Ti.EventTime(ev) }
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = schedule.List(tr, 8, schedule.WithCost(cost)).Speedup
	}
	b.ReportMetric(speedup, "speedup8")
}

// BenchmarkRecSparseJoint compares sparsity-aware against dense joint
// expansion at PMF-like 90% sparsity (Rec 7).
func BenchmarkRecSparseJoint(b *testing.B) {
	p1 := tensor.OneHot(3, 64)
	p2 := tensor.OneHot(17, 64)
	s1, s2 := quant.ToSparse(p1, 0), quant.ToSparse(p2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = quant.JointSparse(s1, s2)
	}
}

func BenchmarkRecDenseJoint(b *testing.B) {
	e := ops.New()
	p1 := tensor.OneHot(3, 64)
	p2 := tensor.OneHot(17, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = abduction.Joint(e, p1, p2)
	}
}

// ---- Substrate microbenchmarks ----------------------------------------------

func BenchmarkSubstrateMatMul256(b *testing.B) {
	g := tensor.NewRNG(3)
	x := g.Normal(0, 1, 256, 256)
	y := g.Normal(0, 1, 256, 256)
	b.SetBytes(int64(tensor.BytesMatMul(256, 256, 256)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, y)
	}
}

func BenchmarkSubstrateConv2D(b *testing.B) {
	g := tensor.NewRNG(4)
	in := g.Normal(0, 1, 1, 8, 32, 32)
	w := g.Normal(0, 1, 16, 8, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Conv2D(in, w, nil, 1, 1)
	}
}

func BenchmarkSubstrateCacheSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := cachesim.NewHierarchy(
			cachesim.NewCache("L1", 64*1024, 4, 128),
			cachesim.NewCache("L2", 5632*1024, 16, 128),
		)
		cachesim.GEMMStream(h, 128, 128, 128, 4, 1<<18)
	}
}

func BenchmarkSubstrateRavenGenerate(b *testing.B) {
	g := tensor.NewRNG(5)
	for i := 0; i < b.N; i++ {
		t := raven.Generate(raven.Config{M: 3}, g)
		if t.Validate() != nil {
			b.Fatal("invalid task")
		}
	}
}

// ---- Execution backends: serial vs parallel kernel dispatch ----------------
//
// The parallel families time the same kernel on a worker pool and report a
// "speedup" metric against a serial baseline measured in the same process.
// On a single-CPU host GOMAXPROCS=1 serializes the pool and the speedup
// hovers around 1.0; the families exist so multi-core runs surface the
// scaling directly in benchmark output.

// serialBaselineNs times fn on the serial backend and returns ns per call.
func serialBaselineNs(fn func()) float64 {
	const iters = 3
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

func benchBackendGEMM(b *testing.B, workers int) {
	g := tensor.NewRNG(11)
	x := g.Normal(0, 1, 512, 512)
	y := g.Normal(0, 1, 512, 512)
	b.SetBytes(int64(tensor.BytesMatMul(512, 512, 512)))
	if workers == 1 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tensor.MatMulOn(tensor.Serial, x, y)
		}
		return
	}
	serialNs := serialBaselineNs(func() { _ = tensor.MatMulOn(tensor.Serial, x, y) })
	be := backend.NewParallel(workers)
	defer be.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulOn(be, x, y)
	}
	b.StopTimer()
	parNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(serialNs/parNs, "speedup")
}

func BenchmarkBackendSerialGEMM512(b *testing.B)     { benchBackendGEMM(b, 1) }
func BenchmarkBackendParallelGEMM512x2(b *testing.B) { benchBackendGEMM(b, 2) }
func BenchmarkBackendParallelGEMM512x4(b *testing.B) { benchBackendGEMM(b, 4) }

func benchBackendConv2D(b *testing.B, workers int) {
	g := tensor.NewRNG(12)
	in := g.Normal(0, 1, 4, 16, 32, 32)
	w := g.Normal(0, 1, 32, 16, 3, 3)
	if workers == 1 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tensor.Conv2DKernelOn(tensor.Serial, tensor.KernelAuto, in, w, nil, 1, 1)
		}
		return
	}
	serialNs := serialBaselineNs(func() { _ = tensor.Conv2DKernelOn(tensor.Serial, tensor.KernelAuto, in, w, nil, 1, 1) })
	be := backend.NewParallel(workers)
	defer be.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Conv2DKernelOn(be, tensor.KernelAuto, in, w, nil, 1, 1)
	}
	b.StopTimer()
	parNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(serialNs/parNs, "speedup")
}

func BenchmarkBackendSerialConv2D(b *testing.B)     { benchBackendConv2D(b, 1) }
func BenchmarkBackendParallelConv2Dx4(b *testing.B) { benchBackendConv2D(b, 4) }

// benchBackendNVSA runs the full NVSA pipeline on the configured backend and
// reports the symbolic-phase share, exercising circular convolution and the
// factorization loop through the pool.
func benchBackendNVSA(b *testing.B, cfg ops.Config) {
	w := nvsa.New(nvsa.Config{})
	pool := cfg.NewPool()
	defer pool.Close()
	var sym time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pool.Engine()
		if err := w.Run(e); err != nil {
			b.Fatal(err)
		}
		sym = e.Trace().PhaseDuration(trace.Symbolic)
	}
	b.StopTimer()
	b.ReportMetric(float64(sym.Microseconds()), "symbolic_us")
}

func BenchmarkBackendSerialNVSA(b *testing.B) { benchBackendNVSA(b, ops.Config{}) }
func BenchmarkBackendParallelNVSAx4(b *testing.B) {
	benchBackendNVSA(b, ops.Config{Backend: ops.BackendParallel, Workers: 4})
}
