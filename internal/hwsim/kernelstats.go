package hwsim

import (
	"math"
	"time"

	"github.com/neurosym/nsbench/internal/cachesim"
	"github.com/neurosym/nsbench/internal/trace"
)

// KernelStats is the Table-IV row for one kernel class executed on a
// device: compute, memory and communication characteristics.
type KernelStats struct {
	Kernel string
	Class  KernelClass
	Time   time.Duration

	ComputeThroughputPct float64 // issue-slot utilization of the SM pipes
	ALUUtilPct           float64 // arithmetic-unit utilization
	L1ThroughputPct      float64 // L1 bandwidth utilization
	L2ThroughputPct      float64 // L2 bandwidth utilization
	L1HitRatePct         float64 // from cache simulation
	L2HitRatePct         float64
	DRAMBWUtilPct        float64

	FLOPs, AlgBytes, DRAMBytes int64
	Events                     int

	// Measured-execution counters, from the events' recorded wall-clock
	// durations rather than the analytic device model. MeasuredTime is the
	// summed kernel time on the machine that ran the trace;
	// AchievedGFLOPs = FLOPs/MeasuredTime is the kernel class's achieved
	// throughput; RooflinePct places that throughput against this device
	// model's roofline ceiling at the class's algorithmic intensity
	// (achieved/attainable, capped at 100). Zero when the trace carries no
	// durations (projected traces).
	MeasuredTime   time.Duration
	AchievedGFLOPs float64
	RooflinePct    float64
}

// gemmTileReuse models shared-memory/register tiling of real GEMM kernels:
// the fraction of algorithmic traffic that actually reaches the L1/LSU path
// is 1/gemmTileReuse.
const gemmTileReuse = 8

// KernelStats derives hardware counters for the events of one kernel label
// running on the device. The cache hierarchy behaviour is simulated with a
// synthetic address stream matching the kernel class (KernelStream),
// memoized process-wide by stream spec; timing uses an issue/L1/L2/DRAM
// multi-ceiling roofline.
func (d Device) KernelStats(kernel string, events []trace.Event) KernelStats {
	return d.kernelStats(kernel, events, StreamSpec.Stats)
}

// KernelStream returns the representative stream KernelStats simulates for
// one or more events of a kernel label on the device.
func (d Device) KernelStream(kernel string, events []trace.Event) StreamSpec {
	var flops, bytes int64
	for i := range events {
		flops += events[i].FLOPs
		bytes += events[i].Bytes
	}
	return d.Geometry().Stream(ClassifyKernel(kernel), kernel, int64(len(events)), flops, bytes)
}

// kernelStats is KernelStats with the stream simulation sim.
func (d Device) kernelStats(kernel string, events []trace.Event, sim func(StreamSpec) cachesim.Stats) KernelStats {
	ks := KernelStats{Kernel: kernel, Class: ClassifyKernel(kernel), Events: len(events)}
	if len(events) == 0 {
		return ks
	}
	var flops, bytes int64
	var measured time.Duration
	for i := range events {
		flops += events[i].FLOPs
		bytes += events[i].Bytes
		measured += events[i].Dur
	}
	ks.FLOPs, ks.AlgBytes = flops, bytes
	ks.MeasuredTime = measured
	if measured > 0 {
		ks.AchievedGFLOPs = float64(flops) / measured.Seconds() / 1e9
		if att := d.Roofline().Attainable(intensity(flops, bytes)); att > 0 {
			ks.RooflinePct = clampPct(100 * ks.AchievedGFLOPs / att)
		}
	}

	// Simulate the cache behaviour of a representative stream.
	st := sim(d.Geometry().Stream(ks.Class, kernel, int64(len(events)), flops, bytes))
	ks.L1HitRatePct = 100 * st.L1HitRate
	ks.L2HitRatePct = 100 * st.L2HitRate

	// Scale simulated traffic ratios up to the class's algorithmic totals.
	l1Traffic := float64(bytes)
	if ks.Class == ClassGEMM {
		l1Traffic /= gemmTileReuse // tiling filters traffic before L1
	}
	l2Ratio, dramRatio := 0.0, 0.0
	if st.L1Accesses > 0 {
		l2Ratio = float64(st.L2Accesses) / float64(st.L1Accesses)
		dramRatio = float64(st.DRAMBytes) / (float64(st.L1Accesses) * float64(d.LineBytes))
	}
	l2Traffic := l1Traffic * l2Ratio
	dramTraffic := l1Traffic * dramRatio
	ks.DRAMBytes = int64(dramTraffic)

	// Multi-ceiling timing: instruction issue, L1, L2, DRAM.
	memWords := float64(bytes) / 4
	if ks.Class == ClassGEMM {
		memWords /= gemmTileReuse
	}
	peakIssue := d.PeakFP32GFLOPs * 1e9
	tIssue := (float64(flops) + memWords) / (peakIssue * 0.95)
	tL1 := l1Traffic / (d.L1BWGBs * 1e9)
	tL2 := l2Traffic / (d.L2BWGBs * 1e9)
	tDram := dramTraffic / (d.MemBWGBs * 1e9)
	// Kernel counters describe in-kernel behaviour, as Nsight Compute
	// reports them: launch gaps are excluded (EventTime includes them).
	t := math.Max(math.Max(tIssue, tL1), math.Max(tL2, tDram))
	ks.Time = time.Duration(t * float64(time.Second))
	if t <= 0 {
		return ks
	}

	ks.ComputeThroughputPct = clampPct(100 * (float64(flops) + memWords) / (t * peakIssue))
	ks.ALUUtilPct = clampPct(100 * float64(flops) / (t * peakIssue))
	ks.L1ThroughputPct = clampPct(100 * l1Traffic / (t * d.L1BWGBs * 1e9))
	ks.L2ThroughputPct = clampPct(100 * l2Traffic / (t * d.L2BWGBs * 1e9))
	ks.DRAMBWUtilPct = clampPct(100 * dramTraffic / (t * d.MemBWGBs * 1e9))
	return ks
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// intensity is arithmetic intensity in FLOPs/byte (0 when traffic is 0).
func intensity(flops, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(flops) / float64(bytes)
}
