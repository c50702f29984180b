package hwsim

import (
	"math"
	"time"

	"github.com/neurosym/nsbench/internal/trace"
)

// EventTime estimates the execution time of one trace event on the device:
// KernelSeconds with no cache hits (every byte moves at DRAM bandwidth),
// plus the launch overhead.
func (d Device) EventTime(e *trace.Event) time.Duration {
	t := d.KernelSeconds(ClassifyKernel(e.Kernel), IsHostCopy(e.Kernel), e.FLOPs, e.Bytes, 0, 0)
	// Symbolic "Others" ops on throughput devices pay control-flow
	// serialization already captured by EffOther; all kernels pay launch.
	t += d.LaunchUs * 1e-6
	return time.Duration(t * float64(time.Second))
}

// IsHostCopy reports whether a kernel label is a host↔device transfer.
func IsHostCopy(kernel string) bool {
	return kernel == "memcpy_h2d" || kernel == "memcpy_d2h"
}

// KernelSeconds is the projected time of one kernel of class on the
// device, launch excluded: the roofline-limited maximum of compute time
// and memory time under the class's efficiency factors. Of its bytes, a
// fraction l1Hit moves at L1 bandwidth, (1-l1Hit)·l2Hit at L2 bandwidth
// and the rest at DRAM bandwidth. With both rates zero the memory time is
// exactly bytes/(MemBWGBs·effM·1e9): on a device that passes Validate the
// on-chip terms are b·0 over a positive bandwidth, +0, and the DRAM term's
// b·1·1 is b. A host↔device copy (hostCopy) crosses the interconnect
// instead (unified-memory devices have H2DGBs == 0 and keep the DRAM
// time).
func (d Device) KernelSeconds(class KernelClass, hostCopy bool, flops, bytes int64, l1Hit, l2Hit float64) float64 {
	if hostCopy && d.H2DGBs > 0 {
		return float64(bytes) / (d.H2DGBs * 1e9)
	}
	effC, effM := d.EffGEMM, d.EffEltwise
	switch class {
	case ClassGather:
		effM = d.EffGather
	case ClassOther:
		effC, effM = d.EffOther, d.EffGather
	}
	var tCompute, tMemory float64 // seconds
	if flops > 0 {
		tCompute = float64(flops) / (d.PeakFP32GFLOPs * effC * 1e9)
	}
	if bytes > 0 {
		b := float64(bytes)
		tMemory = b*l1Hit/(d.L1BWGBs*1e9) +
			b*(1-l1Hit)*l2Hit/(d.L2BWGBs*1e9) +
			b*(1-l1Hit)*(1-l2Hit)/(d.MemBWGBs*effM*1e9)
	}
	return math.Max(tCompute, tMemory)
}

// Projection summarizes a trace projected onto one device.
type Projection struct {
	Device   Device
	Total    time.Duration
	ByPhase  [2]time.Duration
	EnergyJ  float64
	Launches int
}

// ProjectTrace estimates a whole trace's execution on the device.
func (d Device) ProjectTrace(t *trace.Trace) Projection {
	p := Projection{Device: d}
	for i := range t.Events {
		e := &t.Events[i]
		dt := d.EventTime(e)
		p.Total += dt
		p.ByPhase[e.Phase] += dt
		p.Launches++
	}
	p.EnergyJ = p.Total.Seconds() * d.TDPWatts
	return p
}

// PhaseShare returns the projected fraction of time in phase ph.
func (p Projection) PhaseShare(ph trace.Phase) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.ByPhase[ph]) / float64(p.Total)
}

// Speedup returns how much faster this projection is than other
// (>1 means this device is faster). A zero-duration receiver — an empty
// trace, or a degenerate synthesized device that projected no time —
// yields 0 rather than +Inf: sweep grids hit such configs routinely, and
// a sentinel 0 keeps ratio columns finite and sortable. A zero-duration
// other likewise yields 0 (there is nothing to be faster than).
func (p Projection) Speedup(other Projection) float64 {
	if p.Total == 0 || other.Total == 0 {
		return 0
	}
	return float64(other.Total) / float64(p.Total)
}
