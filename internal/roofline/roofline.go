// Package roofline implements the roofline performance model used in the
// paper's Fig. 3c analysis: attainable performance as a function of
// arithmetic intensity under peak-compute and peak-bandwidth ceilings.
package roofline

import (
	"fmt"
)

// Model is a single-device roofline: a flat compute ceiling and a bandwidth
// slope meeting at the ridge point.
type Model struct {
	Name       string
	PeakGFLOPs float64 // peak FP32 throughput, GFLOP/s
	MemBWGBs   float64 // peak DRAM bandwidth, GB/s
}

// Ridge returns the arithmetic intensity (FLOPs/byte) at which the model
// transitions from memory-bound to compute-bound.
func (m Model) Ridge() float64 {
	if m.MemBWGBs == 0 {
		return 0
	}
	return m.PeakGFLOPs / m.MemBWGBs
}

// Attainable returns the roofline ceiling (GFLOP/s) at intensity ai.
func (m Model) Attainable(ai float64) float64 {
	bw := ai * m.MemBWGBs
	if bw < m.PeakGFLOPs {
		return bw
	}
	return m.PeakGFLOPs
}

// Bound classifies an intensity relative to the ridge point.
type Bound int

// Bound values.
const (
	MemoryBound Bound = iota
	ComputeBound
)

// String returns the bound label.
func (b Bound) String() string {
	if b == MemoryBound {
		return "memory-bound"
	}
	return "compute-bound"
}

// Classify returns the bound class of intensity ai.
func (m Model) Classify(ai float64) Bound {
	if ai < m.Ridge() {
		return MemoryBound
	}
	return ComputeBound
}

// Point is one workload component placed on the roofline.
type Point struct {
	Name       string
	AI         float64 // arithmetic intensity, FLOPs/byte
	PerfGFLOPs float64 // achieved performance
	Bound      Bound
	CeilingPct float64 // achieved / attainable, in percent
}

// Place builds a Point from a component's totals. flops and bytes are the
// component's analytic totals; seconds its (measured or projected) runtime.
func (m Model) Place(name string, flops, bytes int64, seconds float64) Point {
	p := Point{Name: name}
	if bytes > 0 {
		p.AI = float64(flops) / float64(bytes)
	}
	if seconds > 0 {
		p.PerfGFLOPs = float64(flops) / seconds / 1e9
	}
	p.Bound = m.Classify(p.AI)
	if att := m.Attainable(p.AI); att > 0 {
		p.CeilingPct = 100 * p.PerfGFLOPs / att
	}
	return p
}

// String renders the point.
func (p Point) String() string {
	return fmt.Sprintf("%s: AI=%.3f flops/byte, %.2f GFLOP/s (%s, %.1f%% of ceiling)",
		p.Name, p.AI, p.PerfGFLOPs, p.Bound, p.CeilingPct)
}
