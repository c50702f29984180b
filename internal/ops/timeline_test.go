package ops

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

type chromeEv struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

func exportChrome(t *testing.T, tr *trace.Trace) []chromeEv {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("engine trace fails chrome validation: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEv `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

// A serial run keeps exactly one op track per phase: every X event lands
// on worker lane 0 and there are no chunk spans to add tracks.
func TestSerialTimelineOneTrackPerPhase(t *testing.T) {
	e := New()
	g := tensor.NewRNG(1)
	a, b := g.Normal(0, 1, 64, 64), g.Normal(0, 1, 64, 64)
	e.MatMul(a, b)
	e.InPhase(trace.Symbolic, func() { e.Add(a, b) })

	if n := len(e.Trace().Spans()); n != 0 {
		t.Fatalf("serial run produced %d chunk spans, want 0", n)
	}
	tracks := map[int]map[int]bool{} // pid -> set of tids with X events
	for _, ev := range exportChrome(t, e.Trace()) {
		if ev.Ph != "X" {
			continue
		}
		if tracks[ev.PID] == nil {
			tracks[ev.PID] = map[int]bool{}
		}
		tracks[ev.PID][ev.TID] = true
	}
	if len(tracks) != 2 {
		t.Fatalf("phases with op events = %d, want 2", len(tracks))
	}
	for pid, tids := range tracks {
		if len(tids) != 1 || !tids[0] {
			t.Fatalf("pid %d has tids %v, want exactly {0}", pid, tids)
		}
	}
}

// A parallel run attributes kernel chunks to worker lanes: the exported
// timeline must show at least two distinct worker tracks, and (given real
// CPUs) chunks on different tracks that overlap in wall-clock time.
func TestParallelTimelineWorkerTracksOverlap(t *testing.T) {
	e := Config{Backend: BackendParallel, Workers: 4}.New()
	defer e.Close()
	g := tensor.NewRNG(2)
	a, b := g.Normal(0, 1, 256, 256), g.Normal(0, 1, 256, 256)
	// Several dispatches: the first may run fully inline while the pool
	// goroutines are still starting up (the task channel is unbuffered).
	for i := 0; i < 8; i++ {
		e.MatMul(a, b)
	}

	spans := e.Trace().Spans()
	if len(spans) == 0 {
		t.Fatal("parallel run recorded no chunk spans")
	}
	workers := map[int]bool{}
	for _, s := range spans {
		if s.Kind != trace.SpanChunk {
			t.Fatalf("unexpected span kind %q", s.Kind)
		}
		if s.Name != "sgemm_nn" {
			t.Fatalf("chunk span kernel = %q, want sgemm_nn", s.Name)
		}
		workers[s.Worker] = true
	}
	if len(workers) < 2 {
		t.Fatalf("distinct worker lanes = %d, want >= 2 (spans: %d)", len(workers), len(spans))
	}

	// The chunk spans surface as X events on distinct tids.
	tids := map[int]bool{}
	for _, ev := range exportChrome(t, e.Trace()) {
		if ev.Ph == "X" && ev.Name == "sgemm_nn" && ev.Dur > 0 {
			tids[ev.TID] = true
		}
	}
	if len(tids) < 2 {
		t.Fatalf("chrome trace worker tids = %d, want >= 2", len(tids))
	}

	if runtime.NumCPU() < 2 {
		t.Skip("overlap assertion needs >= 2 CPUs")
	}
	overlap := false
	for i := 0; i < len(spans) && !overlap; i++ {
		for j := i + 1; j < len(spans); j++ {
			si, sj := spans[i], spans[j]
			if si.Worker == sj.Worker {
				continue
			}
			if si.Start.Before(sj.End) && sj.Start.Before(si.End) {
				overlap = true
				break
			}
		}
	}
	if !overlap {
		t.Fatal("no pair of chunk spans on distinct workers overlaps in time")
	}
}

// InStage wraps its operator events in a stage span.
func TestInStageRecordsSpan(t *testing.T) {
	e := New()
	g := tensor.NewRNG(4)
	a, b := g.Normal(0, 1, 8, 8), g.Normal(0, 1, 8, 8)
	e.InStage("embed", func() { e.MatMul(a, b) })

	spans := e.Trace().Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "embed" || s.Kind != trace.SpanStage || s.End.IsZero() {
		t.Fatalf("stage span = %+v", s)
	}
	ev := e.Trace().Events[0]
	if ev.Start.Before(s.Start) || s.End.Before(ev.Start.Add(ev.Dur)) {
		t.Fatal("operator event not contained in its stage span")
	}
}

// Events carry wall-clock starts ordered with the trace's sequence on a
// single-threaded engine, so the timeline matches the event order.
func TestRecordStampsMonotoneStarts(t *testing.T) {
	e := New()
	g := tensor.NewRNG(5)
	a, b := g.Normal(0, 1, 8, 8), g.Normal(0, 1, 8, 8)
	e.MatMul(a, b)
	e.Add(a, b)
	evs := e.Trace().Events
	if evs[0].Start.IsZero() || evs[1].Start.IsZero() {
		t.Fatal("events missing wall-clock starts")
	}
	if evs[1].Start.Before(evs[0].Start) {
		t.Fatal("starts not monotone on a single-threaded engine")
	}
	if evs[0].Worker != 0 || evs[1].Worker != 0 {
		t.Fatalf("root engine events on lanes %d/%d, want 0", evs[0].Worker, evs[1].Worker)
	}
}
