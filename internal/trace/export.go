package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Export formats: machine-readable dumps of a trace for external tooling.

// jsonEvent is the JSON wire form of an Event.
type jsonEvent struct {
	Seq      int     `json:"seq"`
	Name     string  `json:"name"`
	Kernel   string  `json:"kernel,omitempty"`
	Stage    string  `json:"stage,omitempty"`
	Category string  `json:"category"`
	Phase    string  `json:"phase"`
	StartNs  int64   `json:"start_ns"`
	Worker   int     `json:"worker"`
	DurNs    int64   `json:"dur_ns"`
	FLOPs    int64   `json:"flops"`
	Bytes    int64   `json:"bytes"`
	Alloc    int64   `json:"alloc"`
	Sparsity float64 `json:"sparsity"`
}

// jsonSpan is the JSON wire form of a Span.
type jsonSpan struct {
	Name    string `json:"name"`
	Kind    string `json:"kind,omitempty"`
	Phase   string `json:"phase"`
	Worker  int    `json:"worker"`
	Depth   int    `json:"depth"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// jsonTrace is the JSON wire form of a Trace.
type jsonTrace struct {
	Events []jsonEvent `json:"events"`
	Spans  []jsonSpan  `json:"spans,omitempty"`
	Params []Param     `json:"params,omitempty"`
}

// effectiveEpoch returns the instant timeline offsets are measured from:
// the trace's epoch, pulled back to the earliest recorded timestamp when a
// merged part predates it. Exported offsets are therefore never negative.
func (t *Trace) effectiveEpoch() time.Time {
	epoch := t.epoch
	min := func(ts time.Time) {
		if ts.IsZero() {
			return
		}
		if epoch.IsZero() || ts.Before(epoch) {
			epoch = ts
		}
	}
	for i := range t.Events {
		min(t.Events[i].Start)
	}
	for i := range t.spans {
		min(t.spans[i].Start)
	}
	return epoch
}

// hasTimestamps reports whether any event carries a real wall-clock start.
// Hand-built synthetic traces (tests, fixtures) typically do not; their
// timeline export falls back to back-to-back layout per track.
func (t *Trace) hasTimestamps() bool {
	for i := range t.Events {
		if !t.Events[i].Start.IsZero() {
			return true
		}
	}
	return false
}

// WriteJSON dumps the trace as JSON. Event start offsets are relative to
// the trace epoch (nanoseconds); synthetic events without timestamps
// report start_ns 0.
func (t *Trace) WriteJSON(w io.Writer) error {
	out := jsonTrace{Params: t.params}
	epoch := t.effectiveEpoch()
	rel := func(ts time.Time) int64 {
		if ts.IsZero() {
			return 0
		}
		return ts.Sub(epoch).Nanoseconds()
	}
	for i := range t.Events {
		e := &t.Events[i]
		out.Events = append(out.Events, jsonEvent{
			Seq:      e.Seq,
			Name:     e.Name,
			Kernel:   e.Kernel,
			Stage:    e.Stage,
			Category: e.Category.String(),
			Phase:    e.Phase.String(),
			StartNs:  rel(e.Start),
			Worker:   e.Worker,
			DurNs:    e.Dur.Nanoseconds(),
			FLOPs:    e.FLOPs,
			Bytes:    e.Bytes,
			Alloc:    e.Alloc,
			Sparsity: e.Sparsity,
		})
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End.IsZero() {
			continue // still open: no defined extent to export
		}
		out.Spans = append(out.Spans, jsonSpan{
			Name:    s.Name,
			Kind:    s.Kind,
			Phase:   s.Phase.String(),
			Worker:  s.Worker,
			Depth:   s.Depth,
			StartNs: rel(s.Start),
			DurNs:   s.Duration().Nanoseconds(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// chromeEvent is one entry of the Chrome trace-event format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. The exporter emits
// "X" complete events (operators and kernel chunks), "B"/"E" nested
// ranges (stages), "M" metadata naming tracks, and "C"
// counter samples.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TsUs float64                `json:"ts"`
	DUs  *float64               `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Track layout of the Chrome export: one process per phase, one thread
// per execution lane (0 = the engine goroutine, >0 = pool workers), plus a counter process for the cumulative-FLOPs and
// output-sparsity tracks.
const (
	chromePIDCounters = 0 // "C" counter samples
	chromePIDNeural   = 1 // == int(Neural) + 1
	chromePIDSymbolic = 2 // == int(Symbolic) + 1
)

func chromePID(p Phase) int { return int(p) + 1 }

// sort priority at equal timestamps: metadata first, then range opens
// before the events they enclose, closes last.
const (
	priMeta = iota
	priBegin
	priComplete
	priEnd
)

func durPtr(d time.Duration) *float64 {
	us := float64(d.Nanoseconds()) / 1e3
	return &us
}

// WriteChromeTrace dumps the trace in the Chrome trace-event format as a
// timeline that is accurate to the wall clock: every operator renders at
// its real start time on the track of the lane that executed it, so a
// parallel-backend run shows its kernel chunks visibly overlapping across
// worker tracks while a serial run stays single-track per phase.
//
// Layout: one pid per phase (named via "M" process_name metadata), one
// tid per worker lane (lane 0 is the main engine), "B"/"E" ranges for
// stages, "X" complete events for operators and kernel
// chunks, and "C" counter tracks for cumulative FLOPs and measured output
// sparsity. Traces whose events carry no timestamps (hand-built
// fixtures) fall back to back-to-back layout per track.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	type rec struct {
		ev  chromeEvent
		pri int
		ord int
	}
	var recs []rec
	add := func(pri int, ev chromeEvent) {
		recs = append(recs, rec{ev: ev, pri: pri, ord: len(recs)})
	}

	epoch := t.effectiveEpoch()
	real := t.hasTimestamps()
	rel := func(ts time.Time) float64 { return float64(ts.Sub(epoch).Nanoseconds()) / 1e3 }

	// tracks collects every (pid, tid) seen so metadata can name them.
	type track struct{ pid, tid int }
	tracks := map[track]bool{}

	// Operator events. Without real timestamps, lay events back-to-back
	// per track using their durations, preserving the pre-timeline
	// behaviour for synthetic traces.
	cursor := map[track]time.Duration{}
	starts := make([]float64, len(t.Events))
	for i := range t.Events {
		e := &t.Events[i]
		tr := track{chromePID(e.Phase), e.Worker}
		tracks[tr] = true
		var ts float64
		if real && !e.Start.IsZero() {
			ts = rel(e.Start)
		} else {
			ts = float64(cursor[tr].Nanoseconds()) / 1e3
			cursor[tr] += e.Dur
		}
		starts[i] = ts
		args := map[string]interface{}{
			"seq":      e.Seq,
			"kernel":   e.Kernel,
			"category": e.Category.String(),
			"flops":    e.FLOPs,
			"bytes":    e.Bytes,
		}
		if e.Stage != "" {
			args["stage"] = e.Stage
		}
		if e.Sparsity >= 0 {
			args["sparsity"] = e.Sparsity
		}
		add(priComplete, chromeEvent{
			Name: e.Name,
			Cat:  e.Category.String(),
			Ph:   "X",
			TsUs: ts,
			DUs:  durPtr(e.Dur),
			PID:  tr.pid,
			TID:  tr.tid,
			Args: args,
		})
	}

	// Spans: kernel chunks render as "X" complete events (they may
	// interleave freely across lanes), stages as properly nested "B"/"E"
	// ranges. Spans exist only on traces with real clocks, so no
	// synthetic fallback is needed.
	for i := range t.spans {
		s := &t.spans[i]
		if s.End.IsZero() || s.Start.IsZero() {
			continue
		}
		tr := track{chromePID(s.Phase), s.Worker}
		tracks[tr] = true
		args := map[string]interface{}{"kind": s.Kind}
		if s.Kind == SpanChunk {
			add(priComplete, chromeEvent{
				Name: s.Name, Cat: s.Kind, Ph: "X",
				TsUs: rel(s.Start), DUs: durPtr(s.Duration()),
				PID: tr.pid, TID: tr.tid, Args: args,
			})
			continue
		}
		add(priBegin, chromeEvent{
			Name: s.Name, Cat: s.Kind, Ph: "B",
			TsUs: rel(s.Start), PID: tr.pid, TID: tr.tid, Args: args,
		})
		add(priEnd, chromeEvent{
			Name: s.Name, Cat: s.Kind, Ph: "E",
			TsUs: rel(s.End), PID: tr.pid, TID: tr.tid,
		})
	}

	// Counter tracks: cumulative FLOPs over the whole run, plus the
	// measured output sparsity of each instrumented operator.
	idx := make([]int, len(t.Events))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return starts[idx[a]] < starts[idx[b]] })
	var cumFLOPs int64
	for _, i := range idx {
		e := &t.Events[i]
		cumFLOPs += e.FLOPs
		add(priComplete, chromeEvent{
			Name: "cumulative FLOPs", Ph: "C", TsUs: starts[i],
			PID: chromePIDCounters, Args: map[string]interface{}{"flops": cumFLOPs},
		})
		if e.Sparsity >= 0 {
			add(priComplete, chromeEvent{
				Name: "output sparsity", Ph: "C", TsUs: starts[i],
				PID: chromePIDCounters, Args: map[string]interface{}{"sparsity": e.Sparsity},
			})
		}
	}
	if len(t.Events) > 0 {
		tracks[track{chromePIDCounters, 0}] = true
	}

	// Metadata: name every process (phase) and thread (worker lane).
	for tr := range tracks {
		var pname string
		switch tr.pid {
		case chromePIDCounters:
			pname = "counters"
		case chromePIDNeural:
			pname = "phase: neural"
		case chromePIDSymbolic:
			pname = "phase: symbolic"
		default:
			pname = fmt.Sprintf("process %d", tr.pid)
		}
		add(priMeta, chromeEvent{
			Name: "process_name", Ph: "M", PID: tr.pid, TID: 0,
			Args: map[string]interface{}{"name": pname},
		})
		tname := fmt.Sprintf("worker %d", tr.tid)
		if tr.tid == 0 {
			tname = "main"
		}
		add(priMeta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tr.pid, TID: tr.tid,
			Args: map[string]interface{}{"name": tname},
		})
	}

	// Emit in timeline order: metadata first, then by timestamp with
	// opens before closes, so every track's stream is ts-monotone and
	// "B"/"E" pairs nest. Priority settles equal-timestamp ties; ord
	// keeps the sort deterministic.
	sort.SliceStable(recs, func(a, b int) bool {
		ra, rb := &recs[a], &recs[b]
		if (ra.pri == priMeta) != (rb.pri == priMeta) {
			return ra.pri == priMeta
		}
		if ra.ev.TsUs != rb.ev.TsUs {
			return ra.ev.TsUs < rb.ev.TsUs
		}
		if ra.pri != rb.pri {
			return ra.pri < rb.pri
		}
		return ra.ord < rb.ord
	})
	evs := make([]chromeEvent, len(recs))
	for i := range recs {
		evs[i] = recs[i].ev
	}
	return json.NewEncoder(w).Encode(map[string]interface{}{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}
