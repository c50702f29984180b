// Package ops provides the instrumented execution engine used by every
// nsbench workload.
//
// Engine wraps the raw tensor kernels with profiling: each call is timed,
// annotated with the paper's operator taxonomy category, the active
// neural/symbolic phase, analytic FLOP/byte costs, allocation volume,
// output sparsity, and tensor-level dependencies, and appended to a
// trace.Trace. The engine is what turns a workload run into the data
// behind every figure and table of the characterization study.
package ops

import (
	"time"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Engine executes tensor operations while recording a trace. An Engine is
// not safe for concurrent use; each workload run owns one engine, and only
// the backend's kernel chunks run on other goroutines.
type Engine struct {
	tr    *trace.Trace
	be    backend.Backend
	phase trace.Phase
	stage string

	// kt shims the backend during instrumented ops to record kernel
	// chunks as worker-attributed timeline spans.
	kt *kernelTracer

	// measureSparsity controls whether output sparsity is computed for
	// every event (an O(n) pass over each output). Workload stages that
	// feed the sparsity analysis enable it explicitly.
	measureSparsity bool
	sparsityEps     float32

	// replicas amplifies recorded costs: every event's FLOPs, Bytes and
	// Alloc are multiplied by it. Batched workloads set it to the batch
	// size around regions they execute once on behalf of N identical
	// items (shared symbolic passes, fixed-cost reshapes), so the trace
	// stays uniformly N× a solo run and splits exactly. 0 means 1.
	replicas int

	// observer, when set, sees every event as it is recorded (live
	// metrics). A Pool's observer is shared by every engine the pool hands
	// out, so it must be safe for concurrent use.
	observer trace.Observer
}

// defaultSparsityEps is the zero-threshold a fresh engine measures
// sparsity with until a workload overrides it.
const defaultSparsityEps float32 = 1e-6

// New returns an engine recording into a fresh trace, starting in the
// neural phase on the serial backend. WithBackend selects a different
// backend:
//
//	ops.New(ops.WithBackend(sharedBackend))
//
// Config.New builds an engine on a backend of its own.
func New(opts ...Option) *Engine {
	e := &Engine{tr: trace.New(), be: backend.Serial{}, phase: trace.Neural, sparsityEps: defaultSparsityEps}
	for _, opt := range opts {
		opt(e)
	}
	e.kt = newKernelTracer(e.be)
	return e
}

// Trace returns the engine's trace.
func (e *Engine) Trace() *trace.Trace { return e.tr }

// Backend returns the execution backend the engine dispatches kernels on.
func (e *Engine) Backend() backend.Backend { return e.be }

// Close releases the engine's backend resources (worker goroutines). Only
// call it when the engine owns its backend (Config.New); engines from a
// Pool must leave Close to the pool's owner.
func (e *Engine) Close() { e.be.Close() }

// Recycle ends the output lifetimes of an engine from a Pool: every
// buffer its operators drew from the backend's scratch pool and that was
// not released goes back to the pool, where the next run's outputs reuse
// it. Call it once nothing reads the run's tensors any more, typically
// when the run ends; the trace stays valid, since it holds tensor IDs and
// no tensor data. An output that must outlive the run has to be copied
// to the heap first (Tensor.Clone). On a stand-alone engine Recycle does
// nothing: its outputs stay ordinary garbage. Engine goroutine only.
func (e *Engine) Recycle() { e.kt.recycle() }

// Begin opens a nested timeline span carrying the engine's current phase;
// close it with End. Spans are pure timeline annotation — they never
// contribute to aggregate statistics.
func (e *Engine) Begin(name string) {
	e.tr.BeginSpan(trace.Span{Name: name, Phase: e.phase})
}

// End closes the innermost span opened by Begin/InStage.
func (e *Engine) End() { e.tr.End() }

// SetObserver installs (or, with nil, removes) a live event observer. It
// runs on the engine goroutine, once per recorded event.
func (e *Engine) SetObserver(fn trace.Observer) { e.observer = fn }

// SetPhase switches the active phase; subsequent events carry it.
func (e *Engine) SetPhase(p trace.Phase) { e.phase = p }

// InPhase runs f with the given phase active, then restores the previous one.
func (e *Engine) InPhase(p trace.Phase, f func()) {
	old := e.phase
	e.phase = p
	defer func() { e.phase = old }()
	f()
}

// InStage runs f with the given stage label, restoring the previous one.
// The stage also becomes a nested timeline span, so every workload stage
// renders as a named range around its operator events.
func (e *Engine) InStage(s string, f func()) {
	old := e.stage
	e.stage = s
	e.tr.BeginSpan(trace.Span{Name: s, Kind: trace.SpanStage, Phase: e.phase})
	defer func() {
		e.tr.End()
		e.stage = old
	}()
	f()
}

// SetReplicas amplifies every subsequently recorded event's FLOPs, Bytes
// and Alloc by k, declaring that one execution stands for k identical
// items of a batch. k <= 1 restores normal recording. Batched workloads
// use it around shared regions (e.g. a symbolic pass over replicated
// inputs) so a batch-of-N trace is uniformly N× the solo trace.
func (e *Engine) SetReplicas(k int) {
	if k < 1 {
		k = 1
	}
	e.replicas = k
}

// InReplicas runs f with the replica factor set to k, then restores the
// previous factor. Use it to wrap fixed-cost operators (reshapes, shared
// weight transposes) inside an otherwise materialized batch region, where
// tensor sizes do not scale with the batch.
func (e *Engine) InReplicas(k int, f func()) {
	old := e.replicas
	e.SetReplicas(k)
	defer func() { e.replicas = old }()
	f()
}

// MeasureSparsity toggles per-event output sparsity measurement.
func (e *Engine) MeasureSparsity(on bool) { e.measureSparsity = on }

// SetSparsityEps sets the magnitude below which an element counts as zero
// for sparsity measurement. Probabilistic workloads whose tensors carry a
// uniform noise floor raise this to the floor to measure effective
// sparsity, matching the paper's usage.
func (e *Engine) SetSparsityEps(eps float32) { e.sparsityEps = eps }

// RegisterParam records a persistent parameter (weights, codebook, rules)
// for the storage-footprint analysis.
func (e *Engine) RegisterParam(name, kind string, t *tensor.Tensor) {
	e.tr.RegisterParam(trace.Param{Name: name, Phase: e.phase, Kind: kind, Bytes: t.Bytes()})
}

// RegisterParamBytes records a persistent non-tensor parameter by size.
func (e *Engine) RegisterParamBytes(name, kind string, bytes int64) {
	e.tr.RegisterParam(trace.Param{Name: name, Phase: e.phase, Kind: kind, Bytes: bytes})
}

// op describes one instrumented call.
type op struct {
	name     string
	kernel   string
	category trace.Category
	flops    int64
	bytes    int64
	inputs   []*tensor.Tensor
	// repeatOf, when set, says the primary output holds each element of
	// repeatOf repeatN times, so its zeros are counted on repeatOf.
	repeatOf *tensor.Tensor
	repeatN  int
}

// record times run, derives the event from the op description and the
// result, and appends it to the trace. run must return the produced tensors
// (may be empty for side-effect-only operators).
func (e *Engine) record(o op, run func() []*tensor.Tensor) []*tensor.Tensor {
	start, dur, outs := e.timed(o.kernel, run)
	e.emit(o, start, dur, outs)
	return outs
}

// timed runs one kernel execution and returns its wall-clock start,
// duration and outputs.
//
// For the timeline, it swaps the backend onto the kernel tracer for the
// duration of run so every split dispatch leaves worker-attributed chunk
// spans (labelled kernel) in the trace. The swap is engine-local state,
// safe because an engine is single-goroutine by contract; it is
// idempotent for nested records (the tracer simply stays installed).
func (e *Engine) timed(kernel string, run func() []*tensor.Tensor) (time.Time, time.Duration, []*tensor.Tensor) {
	kt := e.kt
	prevBE := e.be
	prevKernel, prevPhase := kt.kernel, kt.phase
	kt.label(kernel, e.phase)
	e.be = kt

	start := time.Now()
	outs := run()
	dur := time.Since(start)

	e.be = prevBE
	kt.label(prevKernel, prevPhase)
	kt.drain(e.tr)
	return start, dur, outs
}

// emit builds the event for one op over the given execution interval and
// outputs, stamped with the engine's stage and phase, and appends it
// to the trace and the observer.
func (e *Engine) emit(o op, start time.Time, dur time.Duration, outs []*tensor.Tensor) {
	ev := trace.Event{
		Name:     o.name,
		Kernel:   o.kernel,
		Stage:    e.stage,
		Category: o.category,
		Phase:    e.phase,
		Start:    start,
		Dur:      dur,
		FLOPs:    o.flops,
		Bytes:    o.bytes,
		Sparsity: -1,
	}
	for _, in := range o.inputs {
		if in != nil {
			ev.Inputs = append(ev.Inputs, in.ID())
		}
	}
	var alloc int64
	for _, out := range outs {
		if out == nil {
			continue
		}
		ev.Outputs = append(ev.Outputs, out.ID())
		alloc += out.Bytes()
	}
	ev.Alloc = alloc
	// Replica amplification: one execution standing for k identical batch
	// items records k× the analytic costs. Duration is left as measured —
	// the batch ran the work once, and that is the point of batching.
	if e.replicas > 1 {
		k := int64(e.replicas)
		ev.FLOPs *= k
		ev.Bytes *= k
		ev.Alloc *= k
	}
	// Sparsity is measured on the primary output when it is a real tensor;
	// scalars carry no sparsity structure and would distort stage averages.
	if e.measureSparsity && len(outs) > 0 && outs[0] != nil && outs[0].Size() > 1 {
		if o.repeatOf != nil {
			ev.Sparsity = float64(o.repeatOf.CountZero(e.sparsityEps)*o.repeatN) / float64(outs[0].Size())
		} else {
			ev.Sparsity = outs[0].Sparsity(e.sparsityEps)
		}
	}
	e.tr.Append(ev)
	if e.observer != nil {
		e.observer(&ev)
	}
}

// one unwraps a single-output record call, tolerating operators that
// produced nothing.
func one(outs []*tensor.Tensor) *tensor.Tensor {
	if len(outs) == 0 {
		return nil
	}
	return outs[0]
}
