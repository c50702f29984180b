// Package trace is the profiling core of nsbench.
//
// It plays the role the PyTorch Profiler plays in the ISPASS 2024 study:
// every operator invocation in a workload is recorded as an Event carrying
// the operator's name, taxonomy category, execution phase (neural or
// symbolic), measured wall time, analytic FLOP and byte counts, allocation
// volume, output sparsity, and the tensor IDs it consumed and produced.
// Aggregations over a Trace regenerate the paper's figures; the tensor-ID
// dependency graph regenerates its operation-graph analysis (Fig. 4).
package trace

import (
	"fmt"
	"sort"
	"time"
)

// Category is the six-way operator taxonomy of the paper (Sec. IV-B).
type Category int

// The operator categories, in the paper's order.
const (
	Convolution Category = iota
	MatMul
	VectorEltwise
	DataTransform
	DataMovement
	Other
	numCategories
)

// Categories lists all categories in presentation order.
func Categories() []Category {
	return []Category{Convolution, MatMul, VectorEltwise, DataTransform, DataMovement, Other}
}

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Convolution:
		return "Convolution"
	case MatMul:
		return "MatMul"
	case VectorEltwise:
		return "Vector/Eltwise"
	case DataTransform:
		return "DataTransform"
	case DataMovement:
		return "DataMovement"
	case Other:
		return "Others"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Phase distinguishes the neural and symbolic components of a workload.
type Phase int

// The two workload phases.
const (
	Neural Phase = iota
	Symbolic
	numPhases
)

// Phases lists both phases in presentation order.
func Phases() []Phase { return []Phase{Neural, Symbolic} }

// String returns the phase label.
func (p Phase) String() string {
	switch p {
	case Neural:
		return "neural"
	case Symbolic:
		return "symbolic"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Event records one operator invocation.
type Event struct {
	Seq      int           // monotonically increasing sequence number
	Name     string        // operator name, e.g. "MatMul", "CircularConv"
	Kernel   string        // kernel class for Table-IV style analysis, e.g. "sgemm_nn"
	Stage    string        // workload-defined stage label, e.g. "pmf_to_vsa"
	Category Category      // taxonomy category
	Phase    Phase         // neural or symbolic
	Start    time.Time     // wall-clock start (monotonic); zero for synthetic events
	Worker   int           // execution lane: 0 = engine goroutine, >0 = pool worker
	Dur      time.Duration // measured wall time
	FLOPs    int64         // analytic floating-point operation count
	Bytes    int64         // analytic memory traffic (algorithmic convention)
	Alloc    int64         // bytes newly allocated for outputs
	Sparsity float64       // output sparsity in [0,1], or -1 when not measured
	Inputs   []uint64      // tensor IDs consumed
	Outputs  []uint64      // tensor IDs produced
}

// Observer is a hook invoked with each event as it is recorded, so a
// characterization run can be observed live (e.g. streamed into a
// metrics registry) instead of only analyzed post-hoc. The event pointer
// is only valid for the duration of the call. Observers run on the
// goroutine of the engine that records the event, and concurrent runs may
// share one observer, so implementations must be safe for concurrent use.
type Observer func(ev *Event)

// Trace is an ordered log of events plus workload-level registrations.
//
// Alongside the flat event log, a trace carries a timeline skeleton: an
// epoch (the monotonic instant timestamps are measured against) and a set
// of nested spans (stage ranges, kernel chunks) that the Chrome/Perfetto
// export renders as "B"/"E" ranges and worker tracks around the operator
// events.
type Trace struct {
	Events []Event
	params []Param

	// epoch is the monotonic reference instant for the timeline export:
	// an event at Start == epoch renders at ts 0. A batch's per-item
	// traces adopt the batch trace's epoch so their timelines stay aligned.
	epoch time.Time
	spans []Span
	open  []int // indexes into spans of the currently open (un-Ended) spans
}

// Span is a named wall-clock range on one timeline track: a workload
// stage, one kernel chunk, or a serving-layer range. Spans nest (Depth
// is the nesting level at Begin) and never affect aggregate statistics —
// they are pure timeline annotation, so recording them cannot perturb the
// paper's figures.
type Span struct {
	Name   string
	Kind   string // SpanStage, SpanChunk, or free-form
	Phase  Phase
	Worker int       // execution lane, same convention as Event.Worker
	Depth  int       // nesting depth at Begin (0 = outermost)
	Start  time.Time // wall-clock start (monotonic)
	End    time.Time // zero while the span is still open
}

// Duration returns the span's length (0 while it is still open).
func (s *Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Well-known span kinds.
const (
	SpanStage = "stage" // a workload-defined stage (Engine.InStage)
	SpanChunk = "chunk" // one kernel chunk executed by a pool worker
)

// Param is a persistent model parameter (weights, codebooks) registered by
// a workload; it contributes to the storage-footprint analysis (Fig. 3b).
type Param struct {
	Name  string
	Phase Phase
	Kind  string // "weight", "codebook", "knowledge", ...
	Bytes int64
}

// New returns an empty trace whose epoch is the current instant.
func New() *Trace { return &Trace{epoch: time.Now()} }

// Epoch returns the trace's timeline reference instant.
func (t *Trace) Epoch() time.Time { return t.epoch }

// SetEpoch re-anchors the timeline. A batch's per-item traces are anchored
// to the batch trace's epoch so their events export onto one shared time
// axis.
func (t *Trace) SetEpoch(epoch time.Time) { t.epoch = epoch }

// Append adds an event, assigning its sequence number.
func (t *Trace) Append(e Event) {
	e.Seq = len(t.Events)
	t.Events = append(t.Events, e)
}

// BeginSpan opens a nested span. A zero Start is stamped with the current
// instant; Depth is assigned from the open-span stack. Close it with End.
func (t *Trace) BeginSpan(s Span) {
	if s.Start.IsZero() {
		s.Start = time.Now()
	}
	s.End = time.Time{}
	s.Depth = len(t.open)
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

// End closes the most recently opened span at the current instant. It is
// a no-op when no span is open.
func (t *Trace) End() { t.EndAt(time.Now()) }

// EndAt closes the most recently opened span at the given instant.
func (t *Trace) EndAt(end time.Time) {
	if len(t.open) == 0 {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = end
}

// AddSpan appends an already-closed span (e.g. a kernel chunk recorded on
// a pool worker) without touching the open-span stack.
func (t *Trace) AddSpan(s Span) { t.spans = append(t.spans, s) }

// Spans returns the recorded spans in Begin/AddSpan order.
func (t *Trace) Spans() []Span { return t.spans }

// RegisterParam records a persistent parameter.
func (t *Trace) RegisterParam(p Param) { t.params = append(t.params, p) }

// Params returns the registered persistent parameters.
func (t *Trace) Params() []Param { return t.params }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Duration returns the summed duration of all events.
func (t *Trace) Duration() time.Duration {
	var d time.Duration
	for i := range t.Events {
		d += t.Events[i].Dur
	}
	return d
}

// PhaseDuration returns the summed duration of events in phase p.
func (t *Trace) PhaseDuration(p Phase) time.Duration {
	var d time.Duration
	for i := range t.Events {
		if t.Events[i].Phase == p {
			d += t.Events[i].Dur
		}
	}
	return d
}

// PhaseShare returns the fraction of total duration spent in phase p,
// or 0 for an empty trace.
func (t *Trace) PhaseShare(p Phase) float64 {
	total := t.Duration()
	if total == 0 {
		return 0
	}
	return float64(t.PhaseDuration(p)) / float64(total)
}

// CategoryBreakdown aggregates duration per category for one phase.
func (t *Trace) CategoryBreakdown(p Phase) map[Category]time.Duration {
	m := make(map[Category]time.Duration)
	for i := range t.Events {
		if t.Events[i].Phase == p {
			m[t.Events[i].Category] += t.Events[i].Dur
		}
	}
	return m
}

// CategoryShare returns per-category duration fractions within phase p.
// Fractions sum to 1 (or the map is empty if the phase has no time).
func (t *Trace) CategoryShare(p Phase) map[Category]float64 {
	br := t.CategoryBreakdown(p)
	var total time.Duration
	for _, d := range br {
		total += d
	}
	out := make(map[Category]float64, len(br))
	if total == 0 {
		return out
	}
	for c, d := range br {
		out[c] = float64(d) / float64(total)
	}
	return out
}

// PhaseStats summarizes one phase's totals.
type PhaseStats struct {
	Phase    Phase
	Dur      time.Duration
	FLOPs    int64
	Bytes    int64
	Alloc    int64
	Events   int
	PeakWork int64 // largest single-event working set (input+output bytes estimate)
}

// StatsByPhase returns totals for both phases.
func (t *Trace) StatsByPhase() [2]PhaseStats {
	var out [2]PhaseStats
	out[0].Phase, out[1].Phase = Neural, Symbolic
	for i := range t.Events {
		e := &t.Events[i]
		s := &out[e.Phase]
		s.Dur += e.Dur
		s.FLOPs += e.FLOPs
		s.Bytes += e.Bytes
		s.Alloc += e.Alloc
		s.Events++
		if ws := e.Bytes; ws > s.PeakWork {
			s.PeakWork = ws
		}
	}
	return out
}

// FLOPShare returns the fraction of total FLOPs executed in phase p.
func (t *Trace) FLOPShare(p Phase) float64 {
	var total, ph int64
	for i := range t.Events {
		total += t.Events[i].FLOPs
		if t.Events[i].Phase == p {
			ph += t.Events[i].FLOPs
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ph) / float64(total)
}

// StageStats summarizes the events carrying one stage label.
type StageStats struct {
	Stage    string
	Dur      time.Duration
	FLOPs    int64
	Bytes    int64
	Events   int
	Sparsity float64 // size-weighted mean output sparsity of measured events
}

// ByStage aggregates per-stage statistics in first-seen order.
func (t *Trace) ByStage() []StageStats {
	idx := make(map[string]int)
	var out []StageStats
	weight := make(map[string]float64)
	for i := range t.Events {
		e := &t.Events[i]
		if e.Stage == "" {
			continue
		}
		j, ok := idx[e.Stage]
		if !ok {
			j = len(out)
			idx[e.Stage] = j
			out = append(out, StageStats{Stage: e.Stage})
		}
		s := &out[j]
		s.Dur += e.Dur
		s.FLOPs += e.FLOPs
		s.Bytes += e.Bytes
		s.Events++
		if e.Sparsity >= 0 {
			w := float64(e.Alloc)
			if w <= 0 {
				w = 1
			}
			s.Sparsity = (s.Sparsity*weight[e.Stage] + e.Sparsity*w) / (weight[e.Stage] + w)
			weight[e.Stage] += w
		}
	}
	return out
}

// Merge appends the events of parts into t in argument order, renumbering
// their sequence numbers to continue t's own, and carries over any params
// and spans the parts registered. Only Seq is rewritten: wall-clock
// Start, Worker attribution, and span timestamps are preserved verbatim,
// so a merged timeline still renders each shard on its own track at its
// real time. It is the deterministic combine step for traces recorded on
// sharded per-worker buffers: as long as callers pass shards in a fixed
// order, the merged trace is identical run to run.
func (t *Trace) Merge(parts ...*Trace) {
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := range p.Events {
			t.Append(p.Events[i])
		}
		t.params = append(t.params, p.params...)
		t.spans = append(t.spans, p.spans...)
	}
}

// TopOps returns the n longest events, descending by duration. Ties are
// broken by ascending sequence number, so the ranking is deterministic
// across runs and shard orders.
func (t *Trace) TopOps(n int) []Event {
	evs := append([]Event(nil), t.Events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Dur != evs[j].Dur {
			return evs[i].Dur > evs[j].Dur
		}
		return evs[i].Seq < evs[j].Seq
	})
	if n > len(evs) {
		n = len(evs)
	}
	return evs[:n]
}

// ParamBytesByKind sums registered parameter bytes per kind label.
func (t *Trace) ParamBytesByKind() map[string]int64 {
	m := make(map[string]int64)
	for _, p := range t.params {
		m[p.Kind] += p.Bytes
	}
	return m
}
