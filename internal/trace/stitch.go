package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Cross-process trace stitching.
//
// A request that crosses the cluster touches several processes: the
// router proxies (and possibly retries or hedges) it, and one or more
// replicas queue, batch, cache-probe, and execute it. Each process keeps
// its own flight recorder; this file defines (a) the wire form one
// process uses to hand its slice of a request's timeline to another —
// RequestTrace, absolute wall-clock timestamps so independently recorded
// slices share a time axis — and (b) the merge step that renders N such
// slices as one Perfetto-valid Chrome trace with one pid per process and
// one tid per worker lane (WriteStitchedChrome).
//
// Merge rules:
//
//   - Time: every wire timestamp is absolute wall clock (Unix
//     nanoseconds). The stitched export re-anchors all processes to the
//     earliest timestamp across the whole set, so offsets are
//     non-negative and same-host clock skew is the only alignment error.
//   - Identity: processes appear in caller order; process i renders as
//     pid i+1 and its Node string names the pid. Worker lanes map to
//     tids unchanged.
//   - Shape: operator events and non-nesting spans (serving/router
//     ranges, kernel chunks) render as "X" complete events — they may
//     overlap freely on a track. Only engine stage spans, which the span
//     API guarantees properly nested per lane, render as "B"/"E"
//     ranges.

// WireEvent is the portable form of one operator Event: category and
// phase as strings, start as absolute Unix nanoseconds.
type WireEvent struct {
	Seq         int     `json:"seq"`
	Name        string  `json:"name"`
	Kernel      string  `json:"kernel,omitempty"`
	Stage       string  `json:"stage,omitempty"`
	Category    string  `json:"category"`
	Phase       string  `json:"phase"`
	StartUnixNs int64   `json:"start_unix_ns"`
	Worker      int     `json:"worker"`
	DurNs       int64   `json:"dur_ns"`
	FLOPs       int64   `json:"flops"`
	Bytes       int64   `json:"bytes"`
	Sparsity    float64 `json:"sparsity"`
}

// WireSpan is the portable form of one completed Span.
type WireSpan struct {
	Name        string `json:"name"`
	Kind        string `json:"kind,omitempty"`
	Phase       string `json:"phase"`
	Worker      int    `json:"worker"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
}

// RequestTrace is one process's slice of one request's timeline: the
// operator events and spans its flight recorder still holds under the
// request ID, tagged with the process identity.
type RequestTrace struct {
	RequestID string      `json:"request_id"`
	Node      string      `json:"node"`
	Events    []WireEvent `json:"events"`
	Spans     []WireSpan  `json:"spans"`
}

// Empty reports whether the slice carries no timeline data at all.
func (rt *RequestTrace) Empty() bool { return len(rt.Events) == 0 && len(rt.Spans) == 0 }

// RequestTrace assembles the wire form of everything the recorder holds
// under id, stamped with the given node identity. Events and spans whose
// wall-clock start is zero are skipped: without an absolute timestamp
// they cannot be placed on a cross-process axis.
func (r *Recorder) RequestTrace(id, node string) RequestTrace {
	out := RequestTrace{RequestID: id, Node: node}
	for _, rec := range r.EventsByID(id) {
		e := rec.Ev
		if e.Start.IsZero() {
			continue
		}
		out.Events = append(out.Events, WireEvent{
			Seq:         e.Seq,
			Name:        e.Name,
			Kernel:      e.Kernel,
			Stage:       e.Stage,
			Category:    e.Category.String(),
			Phase:       e.Phase.String(),
			StartUnixNs: e.Start.UnixNano(),
			Worker:      e.Worker,
			DurNs:       e.Dur.Nanoseconds(),
			FLOPs:       e.FLOPs,
			Bytes:       e.Bytes,
			Sparsity:    e.Sparsity,
		})
	}
	for _, rec := range r.SpansByID(id) {
		s := rec.Span
		if s.Start.IsZero() || s.End.IsZero() {
			continue
		}
		out.Spans = append(out.Spans, WireSpan{
			Name:        s.Name,
			Kind:        s.Kind,
			Phase:       s.Phase.String(),
			Worker:      s.Worker,
			StartUnixNs: s.Start.UnixNano(),
			DurNs:       s.Duration().Nanoseconds(),
		})
	}
	return out
}

// nestingKind reports whether spans of this kind are guaranteed properly
// nested per worker lane and may render as "B"/"E" ranges. Engine stages
// come from the nested span API; everything else (serving-layer ranges,
// router attempts, kernel chunks) may overlap on a lane and renders as "X"
// complete events instead.
func nestingKind(kind string) bool { return kind == SpanStage }

// WriteStitchedChrome merges the per-process slices of one request into a
// single Chrome trace-event document: one pid per process (named by its
// Node string, in argument order), one tid per worker lane, all
// timestamps re-anchored to the earliest instant across every process.
// The output satisfies ValidateChrome. A slice entry that cannot be
// placed on that axis (see placeable) is an error, and nothing is
// written.
func WriteStitchedChrome(w io.Writer, procs []RequestTrace) error {
	if len(procs) == 0 {
		return fmt.Errorf("trace: nothing to stitch (no process traces)")
	}

	// Global epoch: earliest timestamp anywhere.
	var epoch int64
	seen := false
	observe := func(name string, start, dur int64) error {
		if err := placeable(name, start, dur); err != nil {
			return err
		}
		if !seen || start < epoch {
			epoch, seen = start, true
		}
		return nil
	}
	for i := range procs {
		for _, e := range procs[i].Events {
			if err := observe(e.Name, e.StartUnixNs, e.DurNs); err != nil {
				return err
			}
		}
		for _, s := range procs[i].Spans {
			if err := observe(s.Name, s.StartUnixNs, s.DurNs); err != nil {
				return err
			}
		}
	}
	if !seen {
		return fmt.Errorf("trace: nothing to stitch (no timestamped events or spans)")
	}
	rel := func(ns int64) float64 { return float64(ns-epoch) / 1e3 }

	type rec struct {
		ev  chromeEvent
		pri int
		ord int
	}
	var recs []rec
	add := func(pri int, ev chromeEvent) {
		recs = append(recs, rec{ev: ev, pri: pri, ord: len(recs)})
	}

	type track struct{ pid, tid int }
	tracks := map[track]bool{}

	for pi := range procs {
		p := &procs[pi]
		pid := pi + 1
		for i := range p.Events {
			e := &p.Events[i]
			tr := track{pid, e.Worker}
			tracks[tr] = true
			args := map[string]interface{}{
				"seq":      e.Seq,
				"kernel":   e.Kernel,
				"category": e.Category,
				"phase":    e.Phase,
				"flops":    e.FLOPs,
				"bytes":    e.Bytes,
			}
			if e.Stage != "" {
				args["stage"] = e.Stage
			}
			if e.Sparsity >= 0 {
				args["sparsity"] = e.Sparsity
			}
			dur := float64(e.DurNs) / 1e3
			add(priComplete, chromeEvent{
				Name: e.Name, Cat: e.Category, Ph: "X",
				TsUs: rel(e.StartUnixNs), DUs: &dur,
				PID: pid, TID: tr.tid, Args: args,
			})
		}
		for i := range p.Spans {
			s := &p.Spans[i]
			tr := track{pid, s.Worker}
			tracks[tr] = true
			args := map[string]interface{}{"kind": s.Kind, "phase": s.Phase}
			if nestingKind(s.Kind) {
				add(priBegin, chromeEvent{
					Name: s.Name, Cat: s.Kind, Ph: "B",
					TsUs: rel(s.StartUnixNs), PID: pid, TID: tr.tid, Args: args,
				})
				add(priEnd, chromeEvent{
					Name: s.Name, Cat: s.Kind, Ph: "E",
					TsUs: rel(s.StartUnixNs + s.DurNs), PID: pid, TID: tr.tid,
				})
				continue
			}
			dur := float64(s.DurNs) / 1e3
			add(priComplete, chromeEvent{
				Name: s.Name, Cat: s.Kind, Ph: "X",
				TsUs: rel(s.StartUnixNs), DUs: &dur,
				PID: pid, TID: tr.tid, Args: args,
			})
		}
	}

	// Metadata: name every process (node) and thread (worker lane).
	for tr := range tracks {
		add(priMeta, chromeEvent{
			Name: "process_name", Ph: "M", PID: tr.pid, TID: 0,
			Args: map[string]interface{}{"name": procs[tr.pid-1].Node},
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

	// Same emission discipline as WriteChromeTrace: metadata first, then
	// timestamp order with opens before closes; ord settles the rest.
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

// placeable checks that an entry starting at start and lasting dur
// nanoseconds has a place on the stitched time axis: wire timestamps are
// absolute Unix nanoseconds, so the start must be positive, the duration
// non-negative and the end representable. Otherwise an entry would render
// before the axis origin or end before it begins.
func placeable(name string, start, dur int64) error {
	if start <= 0 || dur < 0 || dur > math.MaxInt64-start {
		return fmt.Errorf("trace: cannot stitch %q: start %d ns, duration %d ns", name, start, dur)
	}
	return nil
}

// SpanAt builds a closed span from explicit instants — the constructor
// serving layers use to record ranges they measured themselves (queue
// wait, proxy attempts) into a flight recorder.
func SpanAt(name, kind string, worker int, start, end time.Time) Span {
	return Span{Name: name, Kind: kind, Worker: worker, Start: start, End: end}
}
