// Package dse is the design-space-exploration engine: it turns one
// recorded characterization trace into projected scores for an entire
// grid of hypothetical hardware configurations.
//
// This is the step the follow-on papers (NSFlow, arXiv:2504.19323; the
// characterization→architecture study, arXiv:2409.13153) build on top of
// the ISPASS 2024 workload data: the characterization is the *input* to an
// automated architecture search. The engine's load-bearing property is
// trace-once/project-many — a workload is executed and traced exactly
// once, then every config point is evaluated by analytically re-projecting
// the cached trace (microseconds per point) instead of re-running the
// workload (hundreds of milliseconds). That asymmetry is what lets a sweep
// cover hundreds to tens of thousands of configurations interactively and
// saturate a serving cluster with useful work.
//
// A Space declares per-knob axes (explicit values or linear/log ranges)
// over hwsim.Device compute/bandwidth knobs and cachesim hierarchy
// geometry; Resolve expands it against a base device into a deterministic
// row-major Grid. Engine.Evaluate scores one grid index: projected
// latency (cache-aware roofline event model), neural/symbolic phase
// balance (the paper's key bottleneck split), roofline attainment, energy,
// and a silicon area/cost proxy. ParetoFront and MergeFronts reduce point
// clouds to latency×cost Pareto fronts; merging partial (per-shard) fronts
// provably preserves the global front, which is what lets a router fan a
// sweep out across replicas and still return the exact single-node answer.
//
// Everything in this package is deterministic: the same space, base device
// and trace produce bit-identical results on every replica, so sharded
// sweeps can be merged, retried and deduplicated byte-for-byte.
package dse

import (
	"fmt"
	"math"

	"github.com/neurosym/nsbench/internal/hwsim"
)

// Axis parameterizes one knob of the config space. Exactly one form is
// used: explicit Values, or a Min/Max/Steps range (Log selects geometric
// spacing). A zero Axis pins the knob to the base device's value.
type Axis struct {
	// Values lists explicit grid points; takes precedence over the range.
	Values []float64 `json:"values,omitempty"`
	// Min..Max with Steps points (linear, or geometric when Log is set).
	// Steps == 1 degenerates to [Min].
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Steps int     `json:"steps,omitempty"`
	Log   bool    `json:"log,omitempty"`
}

// resolve validates the axis and returns its grid form, defaulting to the
// base value for an unset axis. A range stays unmaterialized: a client's
// steps count sizes the grid before anything is allocated for it.
func (a Axis) resolve(name string, base float64) (axisGrid, error) {
	if len(a.Values) > 0 {
		if a.Steps != 0 || a.Min != 0 || a.Max != 0 {
			return axisGrid{}, fmt.Errorf("dse: axis %s: values and min/max/steps are mutually exclusive", name)
		}
		return axisGrid{values: append([]float64(nil), a.Values...)}, nil
	}
	if a.Steps == 0 {
		if a.Min != 0 || a.Max != 0 {
			return axisGrid{}, fmt.Errorf("dse: axis %s: min/max given without steps", name)
		}
		return axisGrid{values: []float64{base}}, nil
	}
	if a.Steps < 0 {
		return axisGrid{}, fmt.Errorf("dse: axis %s: steps must be positive, got %d", name, a.Steps)
	}
	if a.Steps == 1 {
		return axisGrid{values: []float64{a.Min}}, nil
	}
	if !(a.Max > a.Min) {
		return axisGrid{}, fmt.Errorf("dse: axis %s: need max > min, got [%v, %v]", name, a.Min, a.Max)
	}
	if a.Log && a.Min <= 0 {
		return axisGrid{}, fmt.Errorf("dse: axis %s: log spacing needs min > 0, got %v", name, a.Min)
	}
	return axisGrid{min: a.Min, max: a.Max, steps: a.Steps, log: a.Log}, nil
}

// axisGrid is one resolved axis: explicit values, or (values nil) a
// Min..Max range of steps points whose i-th value at computes on demand.
type axisGrid struct {
	values   []float64
	min, max float64
	steps    int
	log      bool
}

// len returns the number of values on the axis.
func (g axisGrid) len() int {
	if g.values != nil {
		return len(g.values)
	}
	return g.steps
}

// at returns the axis's i-th value.
func (g axisGrid) at(i int) float64 {
	if g.values != nil {
		return g.values[i]
	}
	// The last point is pinned to Max exactly: Exp/Log round-trips can
	// wobble the last ulp, and grid values should be reproducible from
	// the spec by eye.
	if i == g.steps-1 {
		return g.max
	}
	t := float64(i) / float64(g.steps-1)
	if g.log {
		return g.min * math.Exp(t*math.Log(g.max/g.min))
	}
	return g.min + t*(g.max-g.min)
}

// Space is a parameterized hardware config space over a base device. Each
// axis sweeps one knob; unset axes keep the base device's value (so the
// zero Space is the single-point grid containing the base device itself).
//
// Device knobs:
//
//   - peak_gflops — the FP32 compute ceiling, GFLOP/s.
//   - mem_bw_gbs — DRAM bandwidth, GB/s.
//   - pes — processing-element parallelism, as a multiplier over the base
//     device (base 1.0): compute ceiling and aggregate L1 bandwidth scale
//     linearly with PE count.
//   - freq_scale — clock scaling (base 1.0): compute ceiling and on-chip
//     (L1/L2) bandwidths scale up, launch/dispatch overhead scales down;
//     DRAM bandwidth is a separate clock domain and does not move.
//   - dataflow_eff — dataflow/mapping quality multiplier (base 1.0)
//     applied to every efficiency factor, clamped to 1: a value above the
//     base models the paper's Recommendation-2 reconfigurable dataflow,
//     below it a poorly matched mapping.
//
// Cache hierarchy knobs (cachesim geometry):
//
//   - l1_kb, l2_kb — per-level capacities, KB.
//   - cache_ways — L1 associativity (L2 stays at the simulator's 16 ways).
//   - line_bytes — cache line / transaction size.
type Space struct {
	PeakGFLOPs  Axis `json:"peak_gflops,omitempty"`
	MemBWGBs    Axis `json:"mem_bw_gbs,omitempty"`
	PEs         Axis `json:"pes,omitempty"`
	FreqScale   Axis `json:"freq_scale,omitempty"`
	DataflowEff Axis `json:"dataflow_eff,omitempty"`
	L1KB        Axis `json:"l1_kb,omitempty"`
	L2KB        Axis `json:"l2_kb,omitempty"`
	Ways        Axis `json:"cache_ways,omitempty"`
	LineBytes   Axis `json:"line_bytes,omitempty"`
}

// axisCount is the number of knobs a Space sweeps, in canonical order.
const axisCount = 9

// Knobs is one concrete assignment of every swept knob — a single grid
// point, before derivation into an hwsim.Device.
type Knobs struct {
	PeakGFLOPs  float64 `json:"peak_gflops"`
	MemBWGBs    float64 `json:"mem_bw_gbs"`
	PEs         float64 `json:"pes"`
	FreqScale   float64 `json:"freq_scale"`
	DataflowEff float64 `json:"dataflow_eff"`
	L1KB        int     `json:"l1_kb"`
	L2KB        int     `json:"l2_kb"`
	Ways        int     `json:"cache_ways"`
	LineBytes   int     `json:"line_bytes"`
}

// Grid is a resolved config space: the cartesian product of the resolved
// axes in canonical order, enumerated row-major (the first axis varies
// slowest). Grid enumeration is deterministic, which is what gives every
// point a stable global index that sharding, deduplication and Pareto
// tie-breaking all key on.
type Grid struct {
	base hwsim.Device
	axes [axisCount]axisGrid
	size int
}

// Resolve expands a space against its base device into a Grid.
func Resolve(base hwsim.Device, space Space) (*Grid, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("dse: base device: %w", err)
	}
	specs := []struct {
		name string
		axis Axis
		base float64
	}{
		{"peak_gflops", space.PeakGFLOPs, base.PeakFP32GFLOPs},
		{"mem_bw_gbs", space.MemBWGBs, base.MemBWGBs},
		{"pes", space.PEs, 1},
		{"freq_scale", space.FreqScale, 1},
		{"dataflow_eff", space.DataflowEff, 1},
		{"l1_kb", space.L1KB, float64(base.L1KB)},
		{"l2_kb", space.L2KB, float64(base.L2KB)},
		{"cache_ways", space.Ways, 4},
		{"line_bytes", space.LineBytes, float64(base.LineBytes)},
	}
	g := &Grid{base: base, size: 1}
	for i, s := range specs {
		axis, err := s.axis.resolve(s.name, s.base)
		if err != nil {
			return nil, err
		}
		n := axis.len()
		if g.size > math.MaxInt/n {
			return nil, fmt.Errorf("dse: space has more than %d points", math.MaxInt)
		}
		g.axes[i] = axis
		g.size *= n
	}
	return g, nil
}

// Size returns the number of grid points.
func (g *Grid) Size() int { return g.size }

// Base returns the device the space was resolved against.
func (g *Grid) Base() hwsim.Device { return g.base }

// Knobs decodes a row-major grid index into its knob assignment. Index
// must be in [0, Size).
func (g *Grid) Knobs(index int) Knobs {
	if index < 0 || index >= g.size {
		panic(fmt.Sprintf("dse: grid index %d out of range [0, %d)", index, g.size))
	}
	var v [axisCount]float64
	rem := index
	for i := axisCount - 1; i >= 0; i-- {
		n := g.axes[i].len()
		v[i] = g.axes[i].at(rem % n)
		rem /= n
	}
	return Knobs{
		PeakGFLOPs:  v[0],
		MemBWGBs:    v[1],
		PEs:         v[2],
		FreqScale:   v[3],
		DataflowEff: v[4],
		L1KB:        int(math.Round(v[5])),
		L2KB:        int(math.Round(v[6])),
		Ways:        int(math.Round(v[7])),
		LineBytes:   int(math.Round(v[8])),
	}
}

// Device derives the hypothetical platform a knob assignment describes,
// validating the result. Degenerate grid corners (zero bandwidth, negative
// ceilings, non-positive scalars) return a diagnostic error — the caller
// records them as failed points instead of crashing the sweep.
func (k Knobs) Device(base hwsim.Device) (hwsim.Device, error) {
	bad := func(field string, v float64) (hwsim.Device, error) {
		return hwsim.Device{}, fmt.Errorf("dse: knob %s must be positive and finite, got %v", field, v)
	}
	if k.PEs <= 0 || math.IsNaN(k.PEs) || math.IsInf(k.PEs, 0) {
		return bad("pes", k.PEs)
	}
	if k.FreqScale <= 0 || math.IsNaN(k.FreqScale) || math.IsInf(k.FreqScale, 0) {
		return bad("freq_scale", k.FreqScale)
	}
	if k.DataflowEff <= 0 || math.IsNaN(k.DataflowEff) || math.IsInf(k.DataflowEff, 0) {
		return bad("dataflow_eff", k.DataflowEff)
	}
	d := base
	d.Name = base.Name + " (dse)"
	d.PeakFP32GFLOPs = k.PeakGFLOPs * k.PEs * k.FreqScale
	d.MemBWGBs = k.MemBWGBs
	d.L1BWGBs = base.L1BWGBs * k.PEs * k.FreqScale
	d.L2BWGBs = base.L2BWGBs * k.FreqScale
	d.LaunchUs = base.LaunchUs / k.FreqScale
	d.L1KB, d.L2KB, d.LineBytes = k.L1KB, k.L2KB, k.LineBytes
	eff := func(e float64) float64 { return math.Min(1, e*k.DataflowEff) }
	d.EffGEMM = eff(base.EffGEMM)
	d.EffEltwise = eff(base.EffEltwise)
	d.EffGather = eff(base.EffGather)
	d.EffOther = eff(base.EffOther)
	// TDP scales with the silicon the config pays for, so projected energy
	// tracks the same area proxy the Pareto front trades latency against.
	if baseCost := areaCost(base); baseCost > 0 {
		d.TDPWatts = base.TDPWatts * areaCost(d) / baseCost
	}
	if err := d.Validate(); err != nil {
		return hwsim.Device{}, err
	}
	if k.Ways <= 0 {
		return bad("cache_ways", float64(k.Ways))
	}
	return d, nil
}

// areaCost is the silicon area/cost proxy a config point is scored with:
// compute area scales with the FLOP ceiling, the memory PHY with DRAM
// bandwidth, and SRAM area with cache capacity (L1 is a multi-ported,
// per-PE structure, so it is weighted heavier per KB than L2). The units
// are arbitrary but fixed — only ratios between points matter, and the
// base RTX 2080 Ti lands near 160 for scale.
func areaCost(d hwsim.Device) float64 {
	return d.PeakFP32GFLOPs/100 + d.MemBWGBs/50 + float64(d.L1KB)/64 + float64(d.L2KB)/512
}

// DefaultSpace is the stock sweep nsbench -explore and nsexplore use when
// no spec is given: 4 compute ceilings × 4 DRAM bandwidths × 2 PE counts ×
// 2 L1 sizes × 2 L2 sizes × 2 dataflow efficiencies = 256 points spanning
// roughly Jetson-class to beyond-2080Ti-class machines.
func DefaultSpace() Space {
	return Space{
		PeakGFLOPs:  Axis{Min: 1000, Max: 16000, Steps: 4, Log: true},
		MemBWGBs:    Axis{Min: 60, Max: 1200, Steps: 4, Log: true},
		PEs:         Axis{Values: []float64{1, 2}},
		DataflowEff: Axis{Values: []float64{1, 1.5}},
		L1KB:        Axis{Values: []float64{64, 128}},
		L2KB:        Axis{Values: []float64{2048, 8192}},
	}
}
