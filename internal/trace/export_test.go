package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func exportTrace() *Trace {
	tr := New()
	e1 := mkEvent("MatMul", MatMul, Neural, 2*time.Millisecond, 100, 200)
	e1.Kernel = "sgemm_nn"
	tr.Append(e1)
	e2 := mkEvent("CircularConv", VectorEltwise, Symbolic, 3*time.Millisecond, 50, 400)
	e2.Stage = "bind"
	tr.Append(e2)
	tr.RegisterParam(Param{Name: "w", Kind: "weight", Bytes: 64})
	return tr
}

// decodeChrome parses a chrome trace into its raw event list.
type rawChromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

func decodeChrome(t *testing.T, data []byte) []rawChromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []rawChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	return doc.TraceEvents
}

func filterPh(evs []rawChromeEvent, ph string) []rawChromeEvent {
	var out []rawChromeEvent
	for _, ev := range evs {
		if ev.Ph == ph {
			out = append(out, ev)
		}
	}
	return out
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Events []map[string]interface{} `json:"events"`
		Params []map[string]interface{} `json:"params"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Events) != 2 || len(decoded.Params) != 1 {
		t.Fatalf("decoded %d events, %d params", len(decoded.Events), len(decoded.Params))
	}
	ev := decoded.Events[0]
	if ev["name"] != "MatMul" || ev["phase"] != "neural" || ev["kernel"] != "sgemm_nn" {
		t.Fatalf("event 0 = %v", ev)
	}
	if ev["dur_ns"].(float64) != 2e6 {
		t.Fatalf("duration = %v", ev["dur_ns"])
	}
	if _, ok := ev["worker"]; !ok {
		t.Fatalf("event 0 has no worker lane: %v", ev)
	}
	if decoded.Events[1]["stage"] != "bind" {
		t.Fatalf("stage missing: %v", decoded.Events[1])
	}
}

func TestWriteJSONStartOffsets(t *testing.T) {
	tr := New()
	epoch := tr.Epoch()
	e1 := mkEvent("a", Other, Neural, time.Millisecond, 0, 0)
	e1.Start = epoch.Add(5 * time.Microsecond)
	tr.Append(e1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Events []struct {
			StartNs int64 `json:"start_ns"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Events[0].StartNs != 5000 {
		t.Fatalf("start_ns = %d, want 5000", decoded.Events[0].StartNs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, buf.Bytes())
	xs := filterPh(evs, "X")
	if len(xs) != 2 {
		t.Fatalf("X events = %d, want 2", len(xs))
	}
	for _, ev := range xs {
		if ev.Dur <= 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
	// The two phases land on distinct processes (one pid per phase).
	if xs[0].PID == xs[1].PID {
		t.Fatal("phases must use distinct pids")
	}
	// Tracks are named via metadata.
	named := map[string]bool{}
	for _, m := range filterPh(evs, "M") {
		if n, ok := m.Args["name"].(string); ok {
			named[n] = true
		}
	}
	for _, want := range []string{"phase: neural", "phase: symbolic", "main"} {
		if !named[want] {
			t.Fatalf("missing %q track metadata; have %v", want, named)
		}
	}
	if !strings.Contains(buf.String(), "displayTimeUnit") {
		t.Fatal("missing displayTimeUnit")
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
}

// Synthetic traces (no wall-clock timestamps) keep the back-to-back
// layout per track, so fixtures remain renderable.
func TestChromeTraceSyntheticPacksBackToBack(t *testing.T) {
	tr := New()
	tr.Append(mkEvent("a", Other, Symbolic, time.Millisecond, 0, 0))
	tr.Append(mkEvent("b", Other, Symbolic, time.Millisecond, 0, 0))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, ev := range decodeChrome(t, buf.Bytes()) {
		if ev.Ph == "X" {
			ts = append(ts, ev.Ts)
		}
	}
	if len(ts) != 2 || ts[0] != 0 || ts[1] != 1000 {
		t.Fatalf("timestamps = %v, want [0 1000]", ts)
	}
}

// Real timestamps survive the export verbatim: events on different
// lanes may overlap in time, which is the whole point of the timeline.
func TestChromeTraceRealTimestamps(t *testing.T) {
	tr := New()
	epoch := tr.Epoch()
	mk := func(name string, worker int, startUs, durUs int64) {
		ev := mkEvent(name, MatMul, Neural, time.Duration(durUs)*time.Microsecond, 0, 0)
		ev.Start = epoch.Add(time.Duration(startUs) * time.Microsecond)
		ev.Worker = worker
		tr.Append(ev)
	}
	mk("w1", 1, 10, 100) // overlaps w2 in [20, 110)
	mk("w2", 2, 20, 100)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	xs := filterPh(decodeChrome(t, buf.Bytes()), "X")
	if len(xs) != 2 {
		t.Fatalf("X events = %d", len(xs))
	}
	if xs[0].Ts != 10 || xs[1].Ts != 20 {
		t.Fatalf("timestamps = %v %v, want 10 20", xs[0].Ts, xs[1].Ts)
	}
	if xs[0].TID == xs[1].TID {
		t.Fatal("workers must land on distinct tids")
	}
	if xs[0].Ts+xs[0].Dur <= xs[1].Ts {
		t.Fatal("events should overlap in time")
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// Stage spans export as nested, balanced B/E ranges; chunk spans as X
// events on their worker's track.
func TestChromeTraceSpans(t *testing.T) {
	tr := New()
	epoch := tr.Epoch()
	at := func(us int64) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }

	tr.BeginSpan(Span{Name: "outer", Kind: SpanStage, Phase: Symbolic, Start: at(0)})
	tr.BeginSpan(Span{Name: "inner", Kind: SpanStage, Phase: Symbolic, Start: at(10)})
	ev := mkEvent("op", Other, Symbolic, 5*time.Microsecond, 0, 0)
	ev.Start = at(12)
	tr.Append(ev)
	tr.EndAt(at(20))
	tr.EndAt(at(30))
	tr.AddSpan(Span{Name: "sgemm_nn", Kind: SpanChunk, Phase: Symbolic, Worker: 3, Start: at(2), End: at(8)})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, buf.Bytes())
	bs, es := filterPh(evs, "B"), filterPh(evs, "E")
	if len(bs) != 2 || len(es) != 2 {
		t.Fatalf("B/E = %d/%d, want 2/2", len(bs), len(es))
	}
	if bs[0].Name != "outer" || bs[1].Name != "inner" {
		t.Fatalf("B order = %q %q, want outer inner", bs[0].Name, bs[1].Name)
	}
	var chunk *rawChromeEvent
	for i, x := range filterPh(evs, "X") {
		if x.Name == "sgemm_nn" {
			chunk = &filterPh(evs, "X")[i]
		}
	}
	if chunk == nil || chunk.TID != 3 {
		t.Fatalf("chunk span missing or on wrong track: %+v", chunk)
	}
	stats, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ranges != 2 {
		t.Fatalf("validator counted %d ranges, want 2", stats.Ranges)
	}
}

// Open (un-Ended) spans are skipped: no dangling B without E.
func TestChromeTraceSkipsOpenSpans(t *testing.T) {
	tr := New()
	tr.BeginSpan(Span{Name: "never-closed"})
	ev := mkEvent("op", Other, Neural, time.Microsecond, 0, 0)
	ev.Start = tr.Epoch().Add(time.Microsecond)
	tr.Append(ev)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, buf.Bytes())
	if n := len(filterPh(evs, "B")); n != 0 {
		t.Fatalf("open span leaked %d B events", n)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceCounters(t *testing.T) {
	tr := New()
	epoch := tr.Epoch()
	e1 := mkEvent("a", MatMul, Neural, time.Microsecond, 100, 0)
	e1.Start = epoch.Add(1 * time.Microsecond)
	tr.Append(e1)
	e2 := mkEvent("b", MatMul, Neural, time.Microsecond, 50, 0)
	e2.Start = epoch.Add(2 * time.Microsecond)
	e2.Sparsity = 0.75
	tr.Append(e2)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var flops []float64
	var sparsity []float64
	for _, c := range filterPh(decodeChrome(t, buf.Bytes()), "C") {
		switch c.Name {
		case "cumulative FLOPs":
			flops = append(flops, c.Args["flops"].(float64))
		case "output sparsity":
			sparsity = append(sparsity, c.Args["sparsity"].(float64))
		}
	}
	if len(flops) != 2 || flops[0] != 100 || flops[1] != 150 {
		t.Fatalf("cumulative FLOPs samples = %v, want [100 150]", flops)
	}
	if len(sparsity) != 1 || sparsity[0] != 0.75 {
		t.Fatalf("sparsity samples = %v, want [0.75]", sparsity)
	}
}

func TestExportEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not JSON":       `{`,
		"no traceEvents": `{"foo": []}`,
		"unknown ph":     `{"traceEvents":[{"ph":"Q","ts":0,"pid":1,"tid":0}]}`,
		"missing ts":     `{"traceEvents":[{"ph":"X","dur":1,"pid":1,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]}`,
		"unmatched B":    `{"traceEvents":[{"ph":"B","name":"s","ts":0,"pid":1,"tid":0}]}`,
		"unmatched E":    `{"traceEvents":[{"ph":"E","ts":0,"pid":1,"tid":0}]}`,
		"ts regression": `{"traceEvents":[
			{"ph":"X","ts":10,"dur":1,"pid":1,"tid":0},
			{"ph":"X","ts":5,"dur":1,"pid":1,"tid":0}]}`,
	}
	for label, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", label)
		}
	}
	// Regression on one track is fine when the other track advances.
	ok := `{"traceEvents":[
		{"ph":"X","ts":10,"dur":1,"pid":1,"tid":0},
		{"ph":"X","ts":5,"dur":1,"pid":1,"tid":1}]}`
	if _, err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("per-track monotonicity misapplied across tracks: %v", err)
	}
}
