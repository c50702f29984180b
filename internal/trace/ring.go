package trace

import (
	"sync"
	"time"
)

// Recorder is a flight recorder: a fixed-capacity ring buffer holding the
// most recent operator events seen by an Observer, tagged with the
// request (or run) that produced them. A long-running service feeds every
// characterization's events through one Recorder so "what was the server
// just executing?" is answerable from a debug endpoint without having
// asked for a trace beforehand.
//
// Alongside operator events the recorder keeps a second ring of completed
// spans (RecordSpan) — serving-layer ranges like queue wait or batch
// windows, and engine stage/chunk ranges copied out of a finished run —
// under the same request-ID tagging. Both rings are indexed by request ID
// (EventsByID, SpansByID), which is what lets a routing tier reassemble
// one request's full cross-process timeline after the fact.
//
// The recorder is safe for concurrent use from any number of recording
// goroutines; a Record is one short critical section copying a fixed-size
// struct, cheap against the microseconds of the kernel it describes. Old
// entries are overwritten silently — Dropped reports how many.
type Recorder struct {
	mu         sync.Mutex
	buf        []RecordedEvent
	total      uint64 // events ever recorded; total - len(buf) were overwritten
	spans      []RecordedSpan
	spansTotal uint64
}

// RecordedEvent is one flight-recorder entry: the operator event plus the
// request scope and wall-clock instant it was recorded at.
type RecordedEvent struct {
	ID   string    // request/run identifier the event belongs to
	Time time.Time // wall clock at record time
	Ev   Event
}

// RecordedSpan is one flight-recorder span entry: a completed wall-clock
// range tagged with the request that produced it.
type RecordedSpan struct {
	ID   string // request/run identifier the span belongs to
	Span Span
}

// DefaultRecorderCapacity is the ring capacity NewRecorder falls back to
// when asked for a non-positive size. A single characterization emits a
// few dozen operator events, so 512 holds the last handful of requests —
// enough context to answer "what was the server just executing?".
const DefaultRecorderCapacity = 512

// NewRecorder returns a flight recorder keeping the last n events. A
// non-positive n selects DefaultRecorderCapacity: a zero- or one-slot
// ring would silently discard the history the recorder exists to keep,
// so callers that don't care about sizing get a useful default instead.
// (Callers that want *no* recorder should not construct one.)
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]RecordedEvent, 0, n)}
}

// Record appends one event under the given scope ID, overwriting the
// oldest entry when the buffer is full. The event is copied; the pointer
// may be reused by the caller immediately (the Observer contract).
func (r *Recorder) Record(id string, ev *Event) {
	entry := RecordedEvent{ID: id, Time: time.Now(), Ev: *ev}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, entry)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = entry
	}
	r.total++
	r.mu.Unlock()
}

// RecordSpan appends one completed span under the given scope ID,
// overwriting the oldest span entry when the span ring is full. Open spans
// (zero End) are dropped: a span without an extent cannot be placed on a
// timeline, and recording it would leak an unclosed range into exports.
func (r *Recorder) RecordSpan(id string, s Span) {
	if s.End.IsZero() {
		return
	}
	entry := RecordedSpan{ID: id, Span: s}
	r.mu.Lock()
	if len(r.spans) < cap(r.buf) {
		r.spans = append(r.spans, entry)
	} else {
		r.spans[r.spansTotal%uint64(cap(r.buf))] = entry
	}
	r.spansTotal++
	r.mu.Unlock()
}

// RecordSpans appends every completed span in ss under id — the bulk form
// used to copy a finished run's stage and chunk ranges into the recorder.
func (r *Recorder) RecordSpans(id string, ss []Span) {
	for _, s := range ss {
		r.RecordSpan(id, s)
	}
}

// Observer returns an Observer that records every event under id.
// Install it on an engine (or chain it after a metrics observer) to feed
// the recorder from a characterization run.
func (r *Recorder) Observer(id string) Observer {
	return func(ev *Event) { r.Record(id, ev) }
}

// Snapshot returns the buffered events oldest-first. The slice is a copy;
// the recorder keeps running while the caller serializes it.
func (r *Recorder) Snapshot() []RecordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecordedEvent, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := r.total % uint64(cap(r.buf)) // index of the oldest entry
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// SnapshotSpans returns the buffered spans oldest-first. The slice is a
// copy; the recorder keeps running while the caller serializes it.
func (r *Recorder) SnapshotSpans() []RecordedSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecordedSpan, 0, len(r.spans))
	if len(r.spans) < cap(r.buf) {
		return append(out, r.spans...)
	}
	head := r.spansTotal % uint64(cap(r.buf))
	out = append(out, r.spans[head:]...)
	return append(out, r.spans[:head]...)
}

// EventsByID returns the buffered events recorded under id, oldest-first.
// Only entries still in the ring are returned: a request whose events were
// overwritten by later traffic yields a shorter (possibly empty) slice.
func (r *Recorder) EventsByID(id string) []RecordedEvent {
	all := r.Snapshot()
	var out []RecordedEvent
	for _, e := range all {
		if e.ID == id {
			out = append(out, e)
		}
	}
	return out
}

// SpansByID returns the buffered spans recorded under id, oldest-first.
func (r *Recorder) SpansByID(id string) []RecordedSpan {
	all := r.SnapshotSpans()
	var out []RecordedSpan
	for _, s := range all {
		if s.ID == id {
			out = append(out, s)
		}
	}
	return out
}

// Cap returns the recorder's capacity in events.
func (r *Recorder) Cap() int { return cap(r.buf) }

// Total returns how many events have ever been recorded.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events have been overwritten.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}
