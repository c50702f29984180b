// Package core is the public heart of nsbench: it defines the workload
// abstraction, the registry of the seven characterized neuro-symbolic
// models, and the Characterize entry point that turns one workload run
// into the full set of measurements behind the ISPASS 2024 study's figures
// and tables — latency phase split (Fig. 2), operator-category breakdown
// (Fig. 3a), memory behaviour (Fig. 3b), roofline placement (Fig. 3c),
// dataflow/critical-path structure (Fig. 4), kernel-level hardware
// counters (Tab. IV), and per-stage sparsity (Fig. 5).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/roofline"
	"github.com/neurosym/nsbench/internal/trace"
)

// Workload is one neuro-symbolic model instance that can execute a single
// end-to-end inference on an instrumented engine.
type Workload interface {
	// Name returns the workload's short name (e.g. "NVSA").
	Name() string
	// Category returns its Kautz-taxonomy category (Table III).
	Category() string
	// Run executes one end-to-end inference, recording into e's trace.
	Run(e *ops.Engine) error
}

// Report is the complete characterization of one workload run.
type Report struct {
	Name     string
	Category string
	// Device names the reference device the roofline (Fig. 3c) was placed
	// on: Options.Device of the analysis.
	Device string
	Trace  *trace.Trace

	// Latency (Fig. 2a).
	Total         time.Duration
	NeuralTime    time.Duration
	SymbolicTime  time.Duration
	SymbolicShare float64
	// FLOP share, for the paper's "92.1% of time but 19% of FLOPs" point.
	SymbolicFLOPShare float64

	// Operator breakdown (Fig. 3a): per phase, per category duration share.
	CategoryShare map[trace.Phase]map[trace.Category]float64

	// Memory (Fig. 3b).
	Memory MemoryReport

	// Data movement (Takeaway 6): share of total time in movement events,
	// and the host→device fraction of movement traffic.
	MovementShare  float64
	MovementH2DPct float64

	// Roofline placement (Fig. 3c) on the reference device.
	Roofline []roofline.Point

	// Dataflow (Fig. 4).
	Dataflow DataflowReport

	// Per-stage statistics incl. sparsity (Fig. 5).
	Stages []trace.StageStats

	// Device projections (Fig. 2b), one per hwsim.EdgeDevices entry.
	Projections []hwsim.Projection
}

// MemoryReport summarizes allocation and storage behaviour.
type MemoryReport struct {
	NeuralAlloc    int64 // bytes allocated during the neural phase
	SymbolicAlloc  int64 // bytes allocated during the symbolic phase
	ParamsByKind   map[string]int64
	TotalParams    int64
	PeakNeuralOp   int64 // largest single-op traffic, neural
	PeakSymbolicOp int64
}

// DataflowReport summarizes the operator dependency graph.
type DataflowReport struct {
	Events             int
	Edges              int
	Depth              int
	MaxWidth           int
	SequentialFraction float64
	CriticalPathLen    int
	CriticalPathDur    time.Duration
	// Share of the critical path spent in each phase: quantifies
	// "symbolic lies on the critical path".
	CriticalPathPhase map[trace.Phase]float64
	NeuralToSymbolic  int // cross-phase dependency edges
	SymbolicToNeural  int
}

// Options configures Characterize.
type Options struct {
	// Device is the roofline/projection reference; zero value means
	// RTX 2080 Ti (the paper's discrete GPU).
	Device hwsim.Device
	// Pool supplies the run's engine and so its execution backend. The
	// pool's owner (a binary, a server, a test) closes it; Characterize
	// only borrows engines. Nil borrows from one package-level serial
	// pool.
	Pool *ops.Pool
	// Observer, when non-nil, sees every operator event live as the run
	// records it (e.g. streaming into a metrics registry). It overrides
	// any observer the Pool installs and must be safe for concurrent use
	// (concurrent runs share it).
	Observer trace.Observer
}

func (o *Options) defaults() {
	if o.Device.Name == "" {
		o.Device = hwsim.RTX2080Ti
	}
}

// Characterize executes one inference of w on a fresh engine and derives
// the full report: Execute followed by Analyze.
func Characterize(w Workload, opts Options) (*Report, error) {
	opts.defaults()
	tr, err := Execute(w, opts)
	if err != nil {
		return nil, err
	}
	return Analyze(w.Name(), w.Category(), tr, opts), nil
}

// Execute runs one inference of w on an engine chosen by opts and returns
// its trace. The run's tensors are recycled when it returns; the trace
// holds everything Analyze reads.
func Execute(w Workload, opts Options) (*trace.Trace, error) {
	e := opts.engine()
	defer e.Recycle()
	if err := w.Run(e); err != nil {
		return nil, fmt.Errorf("core: running %s: %w", w.Name(), err)
	}
	return e.Trace(), nil
}

// serialPool serves runs whose Options name no Pool. The serial backend
// has no workers and its scratch pools are package-level, so one shared
// pool that is never closed costs nothing.
var serialPool = ops.NewPool(backend.Serial{})

// engine returns a run engine from the options' pool. The caller ends the
// run with the engine's Recycle, which hands every engine output back to
// the backend's scratch pool (a report keeps only the trace, which holds
// no tensor data).
func (o *Options) engine() *ops.Engine {
	pool := o.Pool
	if pool == nil {
		pool = serialPool
	}
	e := pool.Engine()
	if o.Observer != nil {
		e.SetObserver(o.Observer)
	}
	return e
}

// CloseWorkload does nothing: workloads hold models, not execution
// backends, so there is nothing to release, and a registered model's
// lifetime is its registry pool's, not the caller's. It stays because the
// end-to-end benchmark module (e2ebench), whose source is held fixed,
// calls it.
func CloseWorkload(Workload) {}

// Analyze derives a report from an existing trace.
func Analyze(name, category string, tr *trace.Trace, opts Options) *Report {
	opts.defaults()
	r := &Report{
		Name:     name,
		Category: category,
		Device:   opts.Device.Name,
		Trace:    tr,
	}
	r.Total = tr.Duration()
	r.NeuralTime = tr.PhaseDuration(trace.Neural)
	r.SymbolicTime = tr.PhaseDuration(trace.Symbolic)
	r.SymbolicShare = tr.PhaseShare(trace.Symbolic)
	r.SymbolicFLOPShare = tr.FLOPShare(trace.Symbolic)

	r.CategoryShare = map[trace.Phase]map[trace.Category]float64{
		trace.Neural:   tr.CategoryShare(trace.Neural),
		trace.Symbolic: tr.CategoryShare(trace.Symbolic),
	}

	stats := tr.StatsByPhase()
	r.Memory = MemoryReport{
		NeuralAlloc:    stats[trace.Neural].Alloc,
		SymbolicAlloc:  stats[trace.Symbolic].Alloc,
		ParamsByKind:   tr.ParamBytesByKind(),
		PeakNeuralOp:   stats[trace.Neural].PeakWork,
		PeakSymbolicOp: stats[trace.Symbolic].PeakWork,
	}
	for _, b := range r.Memory.ParamsByKind {
		r.Memory.TotalParams += b
	}

	// Data-movement attribution.
	var moveDur time.Duration
	var moveBytes, h2dBytes int64
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Category != trace.DataMovement {
			continue
		}
		moveDur += e.Dur
		moveBytes += e.Bytes
		if e.Kernel == "memcpy_h2d" {
			h2dBytes += e.Bytes
		}
	}
	if r.Total > 0 {
		r.MovementShare = float64(moveDur) / float64(r.Total)
	}
	if moveBytes > 0 {
		r.MovementH2DPct = 100 * float64(h2dBytes) / float64(moveBytes)
	}

	// Roofline: place each phase's dominant kernel classes. Operational
	// intensity is measured against DRAM traffic after the cache hierarchy
	// (the paper's convention): the cache simulator filters each class's
	// algorithmic traffic, which is what puts tiled GEMM/conv kernels in
	// the compute-bound region while streaming symbolic kernels stay
	// memory-bound.
	model := roofline.Model{Name: opts.Device.Name, PeakGFLOPs: opts.Device.PeakFP32GFLOPs, MemBWGBs: opts.Device.MemBWGBs}
	classLabel := map[hwsim.KernelClass]string{
		hwsim.ClassGEMM:    "sgemm_nn",
		hwsim.ClassEltwise: "vectorized_elem",
	}
	for _, p := range trace.Phases() {
		for _, class := range []hwsim.KernelClass{hwsim.ClassGEMM, hwsim.ClassEltwise} {
			var evs []trace.Event
			for _, ev := range tr.Events {
				if ev.Phase == p && hwsim.ClassifyKernel(ev.Kernel) == class {
					evs = append(evs, ev)
				}
			}
			if len(evs) == 0 {
				continue
			}
			ks := opts.Device.KernelStats(classLabel[class], evs)
			if ks.FLOPs == 0 || ks.Time <= 0 {
				continue
			}
			dram := ks.DRAMBytes
			if dram <= 0 {
				dram = 1 // fully cache-resident: effectively unbounded AI
			}
			pt := model.Place(fmt.Sprintf("%s/%s/%s", name, p, class), ks.FLOPs, dram, ks.Time.Seconds())
			r.Roofline = append(r.Roofline, pt)
		}
	}

	// Dataflow.
	g := trace.BuildGraph(tr)
	path, dur := g.CriticalPath()
	n2s, s2n := g.CrossPhaseEdges()
	r.Dataflow = DataflowReport{
		Events:             g.N,
		Edges:              g.Edges(),
		Depth:              g.Depth(),
		MaxWidth:           g.MaxWidth(),
		SequentialFraction: g.SequentialFraction(),
		CriticalPathLen:    len(path),
		CriticalPathDur:    dur,
		CriticalPathPhase:  g.PathPhaseShare(path),
		NeuralToSymbolic:   n2s,
		SymbolicToNeural:   s2n,
	}

	r.Stages = tr.ByStage()

	for _, d := range hwsim.EdgeDevices() {
		r.Projections = append(r.Projections, d.ProjectTrace(tr))
	}
	return r
}

// Builder constructs a fresh workload instance.
type Builder func() Workload

// entry is one registered workload: its category, recorded at
// registration so listing the registry builds nothing, and its shared
// model.
type entry struct {
	category string
	build    Builder
	// model holds the one shared instance. Run and RunBatch never write
	// their instance, so concurrent runs share it; the pool is its only
	// holder between uses, so the GC drops it after two cycles in which
	// nothing asked for it (sync.Pool's primary and victim caches).
	model sync.Pool
	// builds counts constructions: one per process while the model stays
	// in use, more after the GC drops it or when two Ps miss at once.
	builds atomic.Int64
}

// shared returns the entry's model, building it on a miss and putting it
// straight back, so the next caller reuses it.
func (en *entry) shared() Workload {
	w, _ := en.model.Get().(Workload)
	if w == nil {
		en.builds.Add(1)
		w = en.build()
	}
	en.model.Put(w)
	return w
}

// registry maps workload names to entries, in registration order.
var (
	registry      = map[string]*entry{}
	registryOrder []string
)

// RegisterWorkload adds a builder under a name, with the category the
// built workload reports; duplicate names panic.
func RegisterWorkload(name, category string, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate workload %q", name))
	}
	registry[name] = &entry{category: category, build: b}
	registryOrder = append(registryOrder, name)
}

// WorkloadNames lists registered workloads in registration order.
func WorkloadNames() []string { return append([]string(nil), registryOrder...) }

// WorkloadInfo is a registered workload's identity.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Category string `json:"category"`
}

// Workloads lists the registered workloads' identities in registration
// order, from what registration recorded: it builds nothing.
func Workloads() []WorkloadInfo {
	out := make([]WorkloadInfo, len(registryOrder))
	for i, name := range registryOrder {
		out[i] = WorkloadInfo{Name: name, Category: registry[name].category}
	}
	return out
}

// WorkloadBuilds reports how many times the named workload's model has
// been constructed in this process.
func WorkloadBuilds(name string) int64 {
	if en, ok := registry[name]; ok {
		return en.builds.Load()
	}
	return 0
}

// BuildWorkload returns the registered workload's shared, read-only
// model, constructing it only when no live copy is cached. Every Run of
// it reports what a freshly built instance's first Run would.
func BuildWorkload(name string) (Workload, error) {
	en, ok := registry[name]
	if !ok {
		known := append([]string(nil), registryOrder...)
		sort.Strings(known)
		return nil, fmt.Errorf("core: unknown workload %q (known: %v)", name, known)
	}
	return en.shared(), nil
}
