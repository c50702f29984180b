package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// stamp returns a deterministic wall-clock instant offset from a fixed
// base, so stitched-trace tests control the cross-process time axis.
func stamp(offset time.Duration) time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).Add(offset)
}

func TestRequestTraceWireForm(t *testing.T) {
	r := NewRecorder(16)
	ev := mkEvent("op", MatMul, Neural, 2*time.Millisecond, 100, 200)
	ev.Start = stamp(0)
	ev.Worker = 3
	r.Record("req-1", &ev)
	r.RecordSpan("req-1", SpanAt("queue.wait", "serve", 0, stamp(time.Millisecond), stamp(3*time.Millisecond)))
	// Other-request entries must not leak in.
	other := mkEvent("other", Other, Symbolic, time.Millisecond, 1, 1)
	other.Start = stamp(0)
	r.Record("req-2", &other)

	rt := r.RequestTrace("req-1", "replica-a")
	if rt.RequestID != "req-1" || rt.Node != "replica-a" {
		t.Fatalf("identity = %q/%q", rt.RequestID, rt.Node)
	}
	if len(rt.Events) != 1 || len(rt.Spans) != 1 {
		t.Fatalf("events/spans = %d/%d, want 1/1", len(rt.Events), len(rt.Spans))
	}
	e := rt.Events[0]
	if e.Name != "op" || e.Worker != 3 || e.StartUnixNs != stamp(0).UnixNano() ||
		e.DurNs != (2*time.Millisecond).Nanoseconds() || e.Category != "MatMul" || e.Phase != "neural" {
		t.Fatalf("wire event = %+v", e)
	}
	s := rt.Spans[0]
	if s.Name != "queue.wait" || s.Kind != "serve" || s.DurNs != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("wire span = %+v", s)
	}
	// The wire form must survive a JSON round trip unchanged — it crosses
	// a process boundary.
	b, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	var back RequestTrace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Events[0] != e || back.Spans[0] != s {
		t.Fatalf("round trip changed the payload: %+v / %+v", back.Events[0], back.Spans[0])
	}
}

func TestRequestTraceSkipsUnstampedEntries(t *testing.T) {
	r := NewRecorder(8)
	ev := mkEvent("synthetic", MatMul, Neural, time.Millisecond, 1, 1) // zero Start
	r.Record("req", &ev)
	rt := r.RequestTrace("req", "n")
	if !rt.Empty() {
		t.Fatalf("unstamped event leaked into the wire form: %+v", rt)
	}
}

func TestWriteStitchedChromeMultiProcess(t *testing.T) {
	router := NewRecorder(16)
	router.RecordSpan("id", SpanAt("route.characterize", "router", 0, stamp(0), stamp(10*time.Millisecond)))
	router.RecordSpan("id", SpanAt("proxy(http://a) 200", "router", 0, stamp(time.Millisecond), stamp(9*time.Millisecond)))

	replica := NewRecorder(16)
	ev := mkEvent("matmul", MatMul, Neural, 2*time.Millisecond, 100, 100)
	ev.Start = stamp(4 * time.Millisecond)
	replica.Record("id", &ev)
	replica.RecordSpan("id", SpanAt("binding", SpanStage, 0, stamp(3*time.Millisecond), stamp(8*time.Millisecond)))

	var buf bytes.Buffer
	err := WriteStitchedChrome(&buf, []RequestTrace{
		router.RequestTrace("id", "nsrouter"),
		replica.RequestTrace("id", "replica-a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("stitched trace invalid: %v\n%s", err, buf.String())
	}
	// Router spans render as X (2), the replica event as X (1), and the
	// stage span as a matched B/E range.
	if stats.Events != 3 || stats.Ranges != 1 {
		t.Fatalf("events/ranges = %d/%d, want 3/1", stats.Events, stats.Ranges)
	}

	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			PID  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int]string{}
	minTs := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			pids[ev.PID] = ev.Args["name"].(string)
		}
		if ev.Ph != "M" {
			if cur, ok := minTs[ev.PID]; !ok || ev.Ts < cur {
				minTs[ev.PID] = ev.Ts
			}
		}
	}
	if len(pids) != 2 || pids[1] != "nsrouter" || pids[2] != "replica-a" {
		t.Fatalf("process names = %v, want pid1=nsrouter pid2=replica-a", pids)
	}
	// The global epoch is the router root span's start, so the router
	// track starts at 0 and the replica's first entry lands 3ms later —
	// the cross-process alignment the stitch exists for.
	if minTs[1] != 0 {
		t.Fatalf("router track starts at %vus, want 0", minTs[1])
	}
	if want := 3000.0; minTs[2] != want {
		t.Fatalf("replica track starts at %vus, want %v", minTs[2], want)
	}
}

func TestWriteStitchedChromeOverlappingNonNestingSpans(t *testing.T) {
	// A hedge race records two overlapping attempts plus a root span that
	// contains both. None of them may render as B/E — improper nesting
	// would fail validation — so the stitch maps them to X events.
	r := NewRecorder(8)
	r.RecordSpan("id", SpanAt("route.characterize", "router", 0, stamp(0), stamp(10*time.Millisecond)))
	r.RecordSpan("id", SpanAt("proxy(a) 200", "router", 0, stamp(time.Millisecond), stamp(9*time.Millisecond)))
	r.RecordSpan("id", SpanAt("proxy(b) canceled", "router", 1, stamp(2*time.Millisecond), stamp(4*time.Millisecond)))
	var buf bytes.Buffer
	if err := WriteStitchedChrome(&buf, []RequestTrace{r.RequestTrace("id", "n")}); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("overlapping spans broke validation: %v", err)
	}
	if stats.Events != 3 || stats.Ranges != 0 {
		t.Fatalf("events/ranges = %d/%d, want 3/0", stats.Events, stats.Ranges)
	}
	if stats.Tracks != 2 {
		t.Fatalf("tracks = %d, want 2 (hedge lane splits off)", stats.Tracks)
	}
}

func TestWriteStitchedChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStitchedChrome(&buf, nil); err == nil {
		t.Fatal("no error for zero processes")
	}
	err := WriteStitchedChrome(&buf, []RequestTrace{{RequestID: "x", Node: "n"}})
	if err == nil || !strings.Contains(err.Error(), "nothing to stitch") {
		t.Fatalf("err = %v, want nothing-to-stitch", err)
	}
}

// FuzzStitchedChrome drives the router's trace boundary: replica
// RequestTrace JSON is decoded and handed to WriteStitchedChrome, whose
// contract is that its output satisfies ValidateChrome. Whenever the
// writer accepts the slices, the validator must accept what it wrote.
func FuzzStitchedChrome(f *testing.F) {
	// A real two-process trace, as two flight recorders produce it.
	router, replica := NewRecorder(16), NewRecorder(16)
	router.RecordSpan("req", SpanAt("proxy", "router", 0, stamp(0), stamp(9*time.Millisecond)))
	op := mkEvent("op", MatMul, Neural, 2*time.Millisecond, 100, 200)
	op.Start = stamp(2 * time.Millisecond)
	op.Worker = 1
	replica.Record("req", &op)
	replica.RecordSpan("req", SpanAt("queue.wait", "serve", 0, stamp(time.Millisecond), stamp(2*time.Millisecond)))
	replica.RecordSpan("req", SpanAt("solve", SpanStage, 0, stamp(2*time.Millisecond), stamp(5*time.Millisecond)))
	real, err := json.Marshal([]RequestTrace{router.RequestTrace("req", "router"), replica.RequestTrace("req", "replica-a")})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(real),
		`[]`,
		`[{"request_id":"r","node":"a"}]`,
		// A span that ends before it starts.
		`[{"node":"a","spans":[{"name":"s","kind":"stage","worker":0,"start_unix_ns":2000,"dur_ns":-1000}]}]`,
		// Nested stage spans on one lane.
		`[{"node":"a","spans":[{"name":"outer","kind":"stage","start_unix_ns":1000,"dur_ns":5000},` +
			`{"name":"inner","kind":"stage","start_unix_ns":2000,"dur_ns":1000}]}]`,
		// The kind forked engines used to record.
		`[{"node":"a","spans":[{"name":"fork[0]","kind":"fork","worker":1,"start_unix_ns":1000,"dur_ns":500}]}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var procs []RequestTrace
		if json.Unmarshal(data, &procs) != nil {
			return
		}
		var buf bytes.Buffer
		if WriteStitchedChrome(&buf, procs) != nil {
			return
		}
		if _, err := ValidateChrome(buf.Bytes()); err != nil {
			t.Fatalf("WriteStitchedChrome output fails ValidateChrome: %v\ninput: %s", err, data)
		}
	})
}
