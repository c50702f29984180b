package hwsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/trace"
)

func TestDeviceByName(t *testing.T) {
	d, err := DeviceByName("RTX 2080 Ti")
	if err != nil || d.PeakFP32GFLOPs != 13450 {
		t.Fatalf("DeviceByName = %+v, %v", d, err)
	}
	if _, err := DeviceByName("TPU v9"); err == nil {
		t.Fatal("unknown device must error")
	}
	if len(AllDevices()) != 4 || len(EdgeDevices()) != 3 {
		t.Fatal("device lists wrong")
	}
}

func TestClassifyKernel(t *testing.T) {
	cases := map[string]KernelClass{
		"sgemm_nn":        ClassGEMM,
		"conv2d":          ClassGEMM,
		"spmm":            ClassGEMM,
		"sgemv":           ClassEltwise,
		"relu_nn":         ClassEltwise,
		"vectorized_elem": ClassEltwise,
		"circular_conv":   ClassEltwise,
		"gather":          ClassGather,
		"memcpy_h2d":      ClassCopy,
		"logic":           ClassOther,
		"":                ClassOther,
	}
	for k, want := range cases {
		if got := ClassifyKernel(k); got != want {
			t.Fatalf("ClassifyKernel(%q) = %v, want %v", k, got, want)
		}
	}
	if ClassGEMM.String() != "gemm" || ClassOther.String() != "other" {
		t.Fatal("class strings wrong")
	}
}

func TestEventTimeComputeVsMemoryBound(t *testing.T) {
	// A big GEMM: compute-bound everywhere.
	gemm := &trace.Event{Kernel: "sgemm_nn", FLOPs: 2e9, Bytes: 12e6}
	// A symbolic element-wise op: memory-bound.
	elt := &trace.Event{Kernel: "vectorized_elem", FLOPs: 1e6, Bytes: 12e6}

	d := RTX2080Ti
	tg := d.EventTime(gemm)
	te := d.EventTime(elt)
	// GEMM time ≈ flops/(peak*eff) + launch.
	wantG := 2e9/(13450e9*0.70) + 5e-6
	if ratio := tg.Seconds() / wantG; ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("gemm time = %v, want ≈%v s", tg, wantG)
	}
	// Eltwise time ≈ bytes/(bw*eff) + launch.
	wantE := 12e6/(616e9*0.88) + 5e-6
	if ratio := te.Seconds() / wantE; ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("eltwise time = %v, want ≈%v s", te, wantE)
	}
}

func TestEventTimeH2DUsesInterconnect(t *testing.T) {
	ev := &trace.Event{Kernel: "memcpy_h2d", Bytes: 120e6}
	d := RTX2080Ti
	got := d.EventTime(ev).Seconds()
	want := 120e6/(12e9) + 5e-6
	if r := got / want; r < 0.99 || r > 1.01 {
		t.Fatalf("h2d time = %v, want %v", got, want)
	}
	// Unified-memory devices keep the DRAM path.
	tx2 := JetsonTX2.EventTime(ev).Seconds()
	wantTX2 := 120e6/(59.7e9*0.55) + 18e-6
	if r := tx2 / wantTX2; r < 0.99 || r > 1.01 {
		t.Fatalf("tx2 h2d time = %v, want %v", tx2, wantTX2)
	}
}

func mkTrace() *trace.Trace {
	tr := trace.New()
	tr.Append(trace.Event{Kernel: "conv2d", Category: trace.Convolution, Phase: trace.Neural, FLOPs: 5e8, Bytes: 5e6})
	tr.Append(trace.Event{Kernel: "sgemm_nn", Category: trace.MatMul, Phase: trace.Neural, FLOPs: 2e8, Bytes: 3e6})
	for i := 0; i < 20; i++ {
		tr.Append(trace.Event{Kernel: "vectorized_elem", Category: trace.VectorEltwise, Phase: trace.Symbolic, FLOPs: 1e6, Bytes: 24e6})
	}
	tr.Append(trace.Event{Kernel: "logic", Category: trace.Other, Phase: trace.Symbolic, FLOPs: 2e6, Bytes: 1e6})
	return tr
}

func TestProjectTraceOrdering(t *testing.T) {
	tr := mkTrace()
	rtx := RTX2080Ti.ProjectTrace(tr)
	xavier := XavierNX.ProjectTrace(tr)
	tx2 := JetsonTX2.ProjectTrace(tr)
	if !(tx2.Total > xavier.Total && xavier.Total > rtx.Total) {
		t.Fatalf("device ordering violated: tx2=%v xavier=%v rtx=%v", tx2.Total, xavier.Total, rtx.Total)
	}
	// The paper's Fig. 2b shape: TX2 an order of magnitude slower than RTX.
	if s := rtx.Speedup(tx2); s < 5 {
		t.Fatalf("RTX vs TX2 speedup = %v, want > 5", s)
	}
	if rtx.Launches != tr.Len() {
		t.Fatalf("launch count = %d", rtx.Launches)
	}
	if rtx.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestProjectionSymbolicDominance(t *testing.T) {
	// This trace is symbolic-heavy in bytes; on every device the symbolic
	// phase should dominate the projection (the Fig. 2a/2b observation).
	tr := mkTrace()
	for _, d := range AllDevices() {
		p := d.ProjectTrace(tr)
		if share := p.PhaseShare(trace.Symbolic); share < 0.5 {
			t.Fatalf("%s: symbolic share = %v, want > 0.5", d.Name, share)
		}
	}
}

func TestProjectionZero(t *testing.T) {
	p := RTX2080Ti.ProjectTrace(trace.New())
	if p.Total != 0 || p.PhaseShare(trace.Neural) != 0 {
		t.Fatal("empty trace projection must be zero")
	}
	if p.Speedup(p) != 0 {
		t.Fatal("zero-total speedup must be 0")
	}
}

func TestKernelStatsTableIVShape(t *testing.T) {
	// Build a synthetic NVSA-like trace: one large GEMM, several ReLU
	// passes, and many large symbolic element-wise ops.
	// GEMM sized so its operands stream past L1 but stay L2-resident
	// (dim ≈ 630, B ≈ 1.6 MB vs 5.5 MB L2), as in the NVSA frontend.
	tr := trace.New()
	tr.Append(trace.Event{Kernel: "sgemm_nn", FLOPs: 5e8, Bytes: 4.8e6})
	for i := 0; i < 6; i++ {
		tr.Append(trace.Event{Kernel: "relu_nn", FLOPs: 2e6, Bytes: 16e6})
	}
	for i := 0; i < 30; i++ {
		tr.Append(trace.Event{Kernel: "vectorized_elem", FLOPs: 4e6, Bytes: 48e6})
		tr.Append(trace.Event{Kernel: "elementwise", FLOPs: 2e6, Bytes: 16e6})
	}
	byKernel := map[string][]trace.Event{}
	for _, ev := range tr.Events {
		byKernel[ev.Kernel] = append(byKernel[ev.Kernel], ev)
	}
	row := func(k string) KernelStats { return RTX2080Ti.KernelStats(k, byKernel[k]) }
	gemm, relu, vec, elt := row("sgemm_nn"), row("relu_nn"), row("vectorized_elem"), row("elementwise")

	// Neural kernels: high compute/ALU utilization, low DRAM pressure.
	if gemm.ALUUtilPct < 50 {
		t.Fatalf("gemm ALU util = %v, want high", gemm.ALUUtilPct)
	}
	if gemm.DRAMBWUtilPct > 40 {
		t.Fatalf("gemm DRAM util = %v, want low", gemm.DRAMBWUtilPct)
	}
	// Symbolic kernels: the paper's signature — ALU < 10%, DRAM ~ saturated.
	for _, s := range []KernelStats{vec, elt} {
		if s.ALUUtilPct > 10 {
			t.Fatalf("%s ALU util = %v, want < 10", s.Kernel, s.ALUUtilPct)
		}
		if s.DRAMBWUtilPct < 60 {
			t.Fatalf("%s DRAM util = %v, want high", s.Kernel, s.DRAMBWUtilPct)
		}
		if s.ComputeThroughputPct > 20 {
			t.Fatalf("%s compute throughput = %v, want low", s.Kernel, s.ComputeThroughputPct)
		}
	}
	// GEMM cache signature: L1 hit low, L2 hit high.
	if gemm.L1HitRatePct > 25 {
		t.Fatalf("gemm L1 hit = %v, want low", gemm.L1HitRatePct)
	}
	if gemm.L2HitRatePct < 50 {
		t.Fatalf("gemm L2 hit = %v, want high", gemm.L2HitRatePct)
	}
	// ReLU in-place signature: ~50% L1 hit.
	if relu.L1HitRatePct < 40 || relu.L1HitRatePct > 60 {
		t.Fatalf("relu L1 hit = %v, want ~50", relu.L1HitRatePct)
	}
	// Compute throughput ordering: neural kernels ≫ symbolic kernels.
	if gemm.ComputeThroughputPct < 5*vec.ComputeThroughputPct {
		t.Fatalf("CT ordering violated: gemm %v vs vec %v", gemm.ComputeThroughputPct, vec.ComputeThroughputPct)
	}
}

func TestKernelStatsEmpty(t *testing.T) {
	ks := RTX2080Ti.KernelStats("sgemm_nn", nil)
	if ks.Events != 0 || ks.Time != 0 {
		t.Fatalf("empty kernel stats = %+v", ks)
	}
}

func TestEventTimeIncludesLaunch(t *testing.T) {
	tiny := &trace.Event{Kernel: "elementwise", FLOPs: 10, Bytes: 40}
	d := JetsonTX2
	if got := d.EventTime(tiny); got < 18*time.Microsecond {
		t.Fatalf("tiny kernel must pay launch overhead, got %v", got)
	}
}

func TestKernelStatsMeasuredFields(t *testing.T) {
	// One GEMM event with a recorded wall-clock duration: 2e9 FLOPs in
	// 500ms = 4 achieved GFLOP/s. AI = 2e9/8e6 = 250 flops/byte, far past
	// every device's ridge, so the ceiling is the compute peak.
	tr := trace.New()
	tr.Append(trace.Event{Kernel: "sgemm_nn", FLOPs: 2e9, Bytes: 8e6, Dur: 500 * time.Millisecond})
	ks := XeonSilver4114.KernelStats("sgemm_nn", tr.Events)
	if ks.MeasuredTime != 500*time.Millisecond {
		t.Fatalf("MeasuredTime = %v", ks.MeasuredTime)
	}
	if ks.AchievedGFLOPs < 3.99 || ks.AchievedGFLOPs > 4.01 {
		t.Fatalf("AchievedGFLOPs = %v, want 4", ks.AchievedGFLOPs)
	}
	want := 100 * 4.0 / XeonSilver4114.PeakFP32GFLOPs
	if diff := ks.RooflinePct - want; diff < -0.01 || diff > 0.01 {
		t.Fatalf("RooflinePct = %v, want %v", ks.RooflinePct, want)
	}

	// No durations: measured fields stay zero (projected traces).
	tr2 := trace.New()
	tr2.Append(trace.Event{Kernel: "sgemm_nn", FLOPs: 2e9, Bytes: 8e6})
	ks2 := XeonSilver4114.KernelStats("sgemm_nn", tr2.Events)
	if ks2.MeasuredTime != 0 || ks2.AchievedGFLOPs != 0 || ks2.RooflinePct != 0 {
		t.Fatalf("projected trace measured fields = %v %v %v", ks2.MeasuredTime, ks2.AchievedGFLOPs, ks2.RooflinePct)
	}
}

func TestDeviceRoofline(t *testing.T) {
	m := RTX2080Ti.Roofline()
	if m.PeakGFLOPs != RTX2080Ti.PeakFP32GFLOPs || m.MemBWGBs != RTX2080Ti.MemBWGBs {
		t.Fatalf("roofline model %+v does not match device", m)
	}
	// A memory-bound point: AI below the ridge, ceiling is AI·BW.
	p := m.Place("eltwise", 1e9, 1e9, 1)
	if p.Bound != 0 { // roofline.MemoryBound
		t.Fatalf("AI=1 on 2080Ti should be memory-bound, got %v", p.Bound)
	}
	if p.PerfGFLOPs != 1 {
		t.Fatalf("PerfGFLOPs = %v, want 1", p.PerfGFLOPs)
	}
}

func TestDeviceValidate(t *testing.T) {
	for _, d := range AllDevices() {
		if err := d.Validate(); err != nil {
			t.Fatalf("modeled device %s fails validation: %v", d.Name, err)
		}
	}
	if err := NSAccel.Validate(); err != nil {
		t.Fatalf("NSAccel fails validation: %v", err)
	}

	base := RTX2080Ti
	cases := []struct {
		name   string
		mutate func(*Device)
		want   string // substring of the diagnostic
	}{
		{"zero peak", func(d *Device) { d.PeakFP32GFLOPs = 0 }, "PeakFP32GFLOPs"},
		{"negative peak", func(d *Device) { d.PeakFP32GFLOPs = -1 }, "PeakFP32GFLOPs"},
		{"zero bw", func(d *Device) { d.MemBWGBs = 0 }, "MemBWGBs"},
		{"negative bw", func(d *Device) { d.MemBWGBs = -500 }, "MemBWGBs"},
		{"nan bw", func(d *Device) { d.MemBWGBs = math.NaN() }, "MemBWGBs"},
		{"inf peak", func(d *Device) { d.PeakFP32GFLOPs = math.Inf(1) }, "PeakFP32GFLOPs"},
		{"zero l1", func(d *Device) { d.L1KB = 0 }, "L1KB"},
		{"negative l2", func(d *Device) { d.L2KB = -64 }, "L2KB"},
		{"zero line", func(d *Device) { d.LineBytes = 0 }, "LineBytes"},
		{"zero l1bw", func(d *Device) { d.L1BWGBs = 0 }, "L1BWGBs"},
		{"zero l2bw", func(d *Device) { d.L2BWGBs = 0 }, "L2BWGBs"},
		{"negative launch", func(d *Device) { d.LaunchUs = -1 }, "LaunchUs"},
		{"negative h2d", func(d *Device) { d.H2DGBs = -1 }, "H2DGBs"},
		{"negative tdp", func(d *Device) { d.TDPWatts = -1 }, "TDPWatts"},
		{"zero eff", func(d *Device) { d.EffGEMM = 0 }, "EffGEMM"},
		{"eff above one", func(d *Device) { d.EffEltwise = 1.5 }, "EffEltwise"},
		{"negative eff", func(d *Device) { d.EffGather = -0.1 }, "EffGather"},
		{"nan eff", func(d *Device) { d.EffOther = math.NaN() }, "EffOther"},
	}
	for _, tc := range cases {
		d := base
		tc.mutate(&d)
		err := d.Validate()
		if err == nil {
			t.Fatalf("%s: Validate() = nil, want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: diagnostic %q does not name field %s", tc.name, err, tc.want)
		}
	}
}

func TestSpeedupZeroDurationGuards(t *testing.T) {
	a := Projection{Total: time.Second}
	b := Projection{Total: 2 * time.Second}
	if got := a.Speedup(b); got != 2 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	zero := Projection{}
	// Neither direction may produce Inf or NaN from a degenerate projection.
	for _, got := range []float64{zero.Speedup(b), b.Speedup(zero), zero.Speedup(zero)} {
		if got != 0 {
			t.Fatalf("zero-duration Speedup = %v, want sentinel 0", got)
		}
	}
}
