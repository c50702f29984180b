package dse

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/roofline"
	"github.com/neurosym/nsbench/internal/trace"
)

// sigEvent is one deduplicated operator-cost row of the trace signature:
// every trace event with the same (class, phase, h2d, flops, bytes) tuple
// projects to the same time on any device, so the signature stores the
// tuple once with a multiplicity instead of re-walking the raw event log
// per point.
type sigEvent struct {
	class hwsim.KernelClass
	phase trace.Phase
	h2d   bool
	flops int64
	bytes int64
	count int64
}

// signature is the compressed, device-independent form of a trace — all a
// projection needs, precomputed once so point evaluation never touches
// strings or the raw event slice.
type signature struct {
	events []sigEvent
	flops  int64 // totals, for roofline attainment
	bytes  int64

	// Per-(phase, class) aggregates size the representative cache streams,
	// as core.Analyze groups events for hwsim.KernelStats.
	classFlops [2][5]int64
	classBytes [2][5]int64
	classCount [2][5]int64
}

// buildSignature compresses tr. Identical cost rows are merged in first-
// appearance order, keeping the signature deterministic for a
// deterministic trace.
func buildSignature(tr *trace.Trace) signature {
	var sig signature
	type key struct {
		class hwsim.KernelClass
		phase trace.Phase
		h2d   bool
		flops int64
		bytes int64
	}
	index := make(map[key]int)
	for i := range tr.Events {
		e := &tr.Events[i]
		class := hwsim.ClassifyKernel(e.Kernel)
		k := key{
			class: class,
			phase: e.Phase,
			h2d:   hwsim.IsHostCopy(e.Kernel),
			flops: e.FLOPs,
			bytes: e.Bytes,
		}
		if j, ok := index[k]; ok {
			sig.events[j].count++
		} else {
			index[k] = len(sig.events)
			sig.events = append(sig.events, sigEvent{
				class: k.class, phase: k.phase, h2d: k.h2d,
				flops: k.flops, bytes: k.bytes, count: 1,
			})
		}
		sig.flops += e.FLOPs
		sig.bytes += e.Bytes
		sig.classFlops[e.Phase][class] += e.FLOPs
		sig.classBytes[e.Phase][class] += e.Bytes
		sig.classCount[e.Phase][class]++
	}
	return sig
}

// geomKey identifies one cache-hierarchy geometry; hit rates depend on
// nothing else, so profiles are memoized under it — a sweep that varies
// only compute/bandwidth knobs simulates the cache exactly once.
type geomKey struct {
	l1KB, l2KB, ways, lineBytes int
}

// cacheProfile holds the simulated L1/L2 hit rates of each (phase, class)
// for one geometry.
type cacheProfile struct {
	l1Hit [2][5]float64
	l2Hit [2][5]float64
}

// Engine evaluates grid points against one cached trace. Safe for
// concurrent use: the signature is immutable after construction and the
// geometry-profile memo is lock-guarded (each simulation runs on its own
// fresh hierarchy).
type Engine struct {
	grid *Grid
	sig  signature

	mu       sync.Mutex
	profiles map[geomKey]*cacheProfile
}

// NewEngine builds an evaluation engine for grid over tr's signature.
func NewEngine(grid *Grid, tr *trace.Trace) *Engine {
	return &Engine{grid: grid, sig: buildSignature(tr), profiles: make(map[geomKey]*cacheProfile)}
}

// Grid returns the engine's resolved grid.
func (e *Engine) Grid() *Grid { return e.grid }

// profile returns the (memoized) cache profile for a geometry.
func (e *Engine) profile(k geomKey) *cacheProfile {
	e.mu.Lock()
	p, ok := e.profiles[k]
	e.mu.Unlock()
	if ok {
		return p
	}
	p = e.simulate(k)
	e.mu.Lock()
	// A racing goroutine may have simulated the same geometry; both
	// results are identical (deterministic streams), so last-write wins.
	e.profiles[k] = p
	e.mu.Unlock()
	return p
}

// sweepStreamCap bounds sweepStreams: 4,096 specs, under 1 MB, hold 512
// geometries of NVSA's eight (phase, class) groups.
const sweepStreamCap = 4096

// sweepStreams memoizes the streams sweeps simulate, process-wide. It is
// not the report memo (hwsim's StreamSpec.Stats): a sweep's geometries are
// the client's to choose, and a wide sweep must not evict the streams
// reports repeat. Engines fill their profiles from it, so a repeated
// sweep, or another shard of one on the same replica, re-simulates no
// geometry that is still held.
var sweepStreams = hwsim.NewStreamMemo(sweepStreamCap)

// simulate runs each present (phase, class)'s representative stream on
// geometry k: at a device's own geometry, exactly the streams
// hwsim.KernelStats simulates for that device's report.
func (e *Engine) simulate(k geomKey) *cacheProfile {
	p := &cacheProfile{}
	g := hwsim.CacheGeometry{L1Bytes: k.l1KB * 1024, L1Ways: k.ways, L2Bytes: k.l2KB * 1024, L2Ways: 16, LineBytes: k.lineBytes}
	for ph := range e.sig.classCount {
		for c, n := range e.sig.classCount[ph] {
			if n == 0 {
				continue
			}
			st := sweepStreams.Stats(g.Stream(hwsim.KernelClass(c), "", n, e.sig.classFlops[ph][c], e.sig.classBytes[ph][c]))
			p.l1Hit[ph][c] = st.L1HitRate
			p.l2Hit[ph][c] = st.L2HitRate
		}
	}
	return p
}

// PointResult is one scored config point. Every field is a deterministic
// function of (base device, space, trace), so identical points computed on
// different replicas marshal to identical bytes — the property sharded
// sweeps rely on for dedupe and byte-identical front merges.
type PointResult struct {
	// Index is the point's global row-major grid index.
	Index int   `json:"index"`
	Knobs Knobs `json:"knobs"`

	// LatencyNs is the projected end-to-end latency on the derived device.
	LatencyNs  int64 `json:"latency_ns"`
	NeuralNs   int64 `json:"neural_ns"`
	SymbolicNs int64 `json:"symbolic_ns"`
	// SymbolicShare is the projected symbolic fraction; Balance is
	// 1 - |neural - symbolic| share, peaking at 1.0 when the config splits
	// time evenly across the phases (the paper's bottleneck criterion: a
	// good NS platform leaves neither phase dominant).
	SymbolicShare float64 `json:"symbolic_share"`
	Balance       float64 `json:"balance"`
	// AttainPct places the projected throughput against the derived
	// device's own roofline at the workload's aggregate intensity.
	AttainPct float64 `json:"attain_pct"`
	// L1HitPct/L2HitPct are traffic-weighted simulated hit rates for the
	// point's cache geometry.
	L1HitPct float64 `json:"l1_hit_pct"`
	L2HitPct float64 `json:"l2_hit_pct"`
	EnergyJ  float64 `json:"energy_j"`
	// Cost is the silicon area/cost proxy (see areaCost); the Pareto
	// front minimizes (LatencyNs, Cost).
	Cost float64 `json:"cost"`
	// Err marks a degenerate config that failed validation; such points
	// carry no scores and are excluded from fronts.
	Err string `json:"error,omitempty"`
}

// Evaluate scores one grid index. Degenerate configs come back with Err
// set rather than an error return: a sweep records them and moves on.
func (e *Engine) Evaluate(index int) PointResult {
	knobs := e.grid.Knobs(index)
	res := PointResult{Index: index, Knobs: knobs}
	dev, err := knobs.Device(e.grid.base)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	prof := e.profile(geomKey{knobs.L1KB, knobs.L2KB, knobs.Ways, knobs.LineBytes})

	var phase [2]float64 // projected seconds by trace.Phase
	var totalSec float64
	launch := dev.LaunchUs * 1e-6
	for i := range e.sig.events {
		ev := &e.sig.events[i]
		h1, h2 := prof.l1Hit[ev.phase][ev.class], prof.l2Hit[ev.phase][ev.class]
		t := (dev.KernelSeconds(ev.class, ev.h2d, ev.flops, ev.bytes, h1, h2) + launch) * float64(ev.count)
		totalSec += t
		phase[ev.phase] += t
	}
	res.LatencyNs = int64(math.Round(totalSec * 1e9))
	res.NeuralNs = int64(math.Round(phase[trace.Neural] * 1e9))
	res.SymbolicNs = int64(math.Round(phase[trace.Symbolic] * 1e9))
	if totalSec > 0 {
		res.SymbolicShare = phase[trace.Symbolic] / totalSec
		res.Balance = 1 - math.Abs(phase[trace.Neural]-phase[trace.Symbolic])/totalSec
		achieved := float64(e.sig.flops) / totalSec / 1e9
		m := roofline.Model{PeakGFLOPs: dev.PeakFP32GFLOPs, MemBWGBs: dev.MemBWGBs}
		ai := 0.0
		if e.sig.bytes > 0 {
			ai = float64(e.sig.flops) / float64(e.sig.bytes)
		}
		if att := m.Attainable(ai); att > 0 {
			res.AttainPct = math.Min(100, 100*achieved/att)
		}
	}
	var wBytes, wL1, wL2 float64
	for ph := range e.sig.classBytes {
		for c, n := range e.sig.classBytes[ph] {
			b := float64(n)
			wBytes += b
			wL1 += b * prof.l1Hit[ph][c]
			wL2 += b * prof.l2Hit[ph][c]
		}
	}
	if wBytes > 0 {
		res.L1HitPct = 100 * wL1 / wBytes
		res.L2HitPct = 100 * wL2 / wBytes
	}
	res.EnergyJ = totalSec * dev.TDPWatts
	res.Cost = areaCost(dev)
	return res
}

// Summary closes a sweep (or a shard of one): counts, throughput, and the
// Pareto front over the evaluated points. ElapsedNs and PointsPerSec are
// wall-clock facts about this run; Front is deterministic and is the part
// cross-replica byte-identity is pinned on.
type Summary struct {
	Workload     string        `json:"workload"`
	Device       string        `json:"device"`
	GridSize     int           `json:"grid_size"`
	ShardIndex   int           `json:"shard_index"`
	ShardCount   int           `json:"shard_count"`
	Evaluated    int           `json:"evaluated"`
	Failed       int           `json:"failed"`
	ElapsedNs    int64         `json:"elapsed_ns"`
	PointsPerSec float64       `json:"points_per_sec"`
	FrontSize    int           `json:"front_size"`
	Front        []PointResult `json:"front"`
	// Errors lists shard-level failures (router aggregation only).
	Errors []string `json:"errors,omitempty"`
}

// Sweep evaluates this shard's slice of the grid — the indices congruent
// to shardIndex mod shardCount — emitting each point as it is scored and
// returning the shard summary with the partial Pareto front. A nil emit
// just collects. Sweep stops early (returning ctx.Err()) when the context
// is cancelled, e.g. a streaming client disconnecting.
func (e *Engine) Sweep(ctx context.Context, shardIndex, shardCount int, emit func(PointResult) error) (*Summary, error) {
	if shardCount <= 0 {
		shardCount = 1
	}
	if shardIndex < 0 || shardIndex >= shardCount {
		return nil, fmt.Errorf("dse: shard index %d out of range [0, %d)", shardIndex, shardCount)
	}
	start := time.Now()
	sum := &Summary{
		GridSize:   e.grid.Size(),
		ShardIndex: shardIndex,
		ShardCount: shardCount,
	}
	var points []PointResult
	for i := shardIndex; i < e.grid.Size(); i += shardCount {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := e.Evaluate(i)
		sum.Evaluated++
		if res.Err != "" {
			sum.Failed++
		}
		points = append(points, res)
		if emit != nil {
			if err := emit(res); err != nil {
				return nil, err
			}
		}
	}
	sum.Front = ParetoFront(points)
	sum.FrontSize = len(sum.Front)
	elapsed := time.Since(start)
	sum.ElapsedNs = elapsed.Nanoseconds()
	if s := elapsed.Seconds(); s > 0 {
		sum.PointsPerSec = float64(sum.Evaluated) / s
	}
	return sum, nil
}
