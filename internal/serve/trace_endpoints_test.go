package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/trace"
)

// getWith is get with request headers (e.g. an inbound X-Request-ID).
func getWith(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := get(h, "/healthz")
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID assigned")
	}
	// Distinct requests get distinct generated IDs.
	if a, b := get(h, "/healthz").Header().Get("X-Request-ID"),
		get(h, "/healthz").Header().Get("X-Request-ID"); a == b {
		t.Fatalf("generated IDs collide: %q", a)
	}
	// An inbound ID is honored verbatim.
	rec = getWith(h, "/healthz", map[string]string{"X-Request-ID": "caller-7"})
	if id := rec.Header().Get("X-Request-ID"); id != "caller-7" {
		t.Fatalf("inbound ID not echoed: %q", id)
	}
}

func TestTraceEndpointChromeFormat(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := get(h, "/v1/trace?workload=testfast")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	stats, err := trace.ValidateChrome(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("/v1/trace chrome output invalid: %v", err)
	}
	if stats.Events == 0 {
		t.Fatal("chrome trace has no events")
	}
}

func TestTraceEndpointJSONFormat(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := get(h, "/v1/trace?workload=testfast&format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Events []struct {
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.Events) == 0 {
		t.Fatal("native trace has no events")
	}
}

func TestTraceEndpointRejectsBadInput(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	if rec := get(h, "/v1/trace?workload=nope"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown workload: status = %d", rec.Code)
	}
	if rec := get(h, "/v1/trace"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing workload: status = %d", rec.Code)
	}
	if rec := get(h, "/v1/trace?workload=testfast&format=xml"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad format: status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status = %d", rec.Code)
	}
}

func TestDebugTraceReportsRequestScopedEvents(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{RecorderSize: 32})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
		strings.NewReader(`{"workload":"testfast"}`))
	req.Header.Set("X-Request-ID", "flight-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("characterize: status = %d: %s", rec.Code, rec.Body.String())
	}

	dump := get(h, "/debug/trace")
	if dump.Code != http.StatusOK {
		t.Fatalf("debug/trace: status = %d", dump.Code)
	}
	var doc struct {
		Capacity int    `json:"capacity"`
		Total    uint64 `json:"total"`
		Dropped  uint64 `json:"dropped"`
		Events   []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Phase string `json:"phase"`
			Time  string `json:"time"`
		} `json:"events"`
	}
	if err := json.Unmarshal(dump.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Capacity != 32 || doc.Total == 0 || len(doc.Events) == 0 {
		t.Fatalf("recorder dump = cap %d total %d events %d", doc.Capacity, doc.Total, len(doc.Events))
	}
	for _, ev := range doc.Events {
		if ev.ID != "flight-1" {
			t.Fatalf("event %q scoped to %q, want flight-1", ev.Name, ev.ID)
		}
		if ev.Time == "" || ev.Phase == "" {
			t.Fatalf("event missing time/phase: %+v", ev)
		}
	}
}

func TestDebugTraceDisabled(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{RecorderSize: -1})
	if rec := get(s.Handler(), "/debug/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

func TestPprofOptIn(t *testing.T) {
	resetCtl(false)
	off := newTestServer(t, Config{})
	if rec := get(off.Handler(), "/debug/pprof/cmdline"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: status = %d", rec.Code)
	}
	on := newTestServer(t, Config{Pprof: true})
	if rec := get(on.Handler(), "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("pprof opt-in: status = %d", rec.Code)
	}
}

func TestRequestLogging(t *testing.T) {
	resetCtl(false)
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	getWith(s.Handler(), "/healthz", map[string]string{"X-Request-ID": "log-me"})
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/healthz", "status=200", "id=log-me"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line missing %q: %s", want, line)
		}
	}
}

func TestRequestTraceEndpoint(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{RecorderSize: 64, NodeName: "replica-test"})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
		strings.NewReader(`{"workload":"testfast"}`))
	req.Header.Set("X-Request-ID", "stitch-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("characterize: status = %d: %s", rec.Code, rec.Body.String())
	}

	dump := get(h, "/v1/trace?request_id=stitch-1")
	if dump.Code != http.StatusOK {
		t.Fatalf("request trace: status = %d: %s", dump.Code, dump.Body.String())
	}
	var rt trace.RequestTrace
	if err := json.Unmarshal(dump.Body.Bytes(), &rt); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rt.RequestID != "stitch-1" || rt.Node != "replica-test" {
		t.Fatalf("trace scoped to %q on %q, want stitch-1 on replica-test", rt.RequestID, rt.Node)
	}
	if len(rt.Events) == 0 {
		t.Fatal("no engine events in request trace")
	}
	spans := map[string]trace.WireSpan{}
	for _, sp := range rt.Spans {
		spans[sp.Name] = sp
		if sp.StartUnixNs <= 0 || sp.DurNs < 0 {
			t.Fatalf("span %q has bad extent: start %d dur %d", sp.Name, sp.StartUnixNs, sp.DurNs)
		}
	}
	for _, want := range []string{"serve.characterize", "cache.probe(miss)", "queue.wait", "core.build", "core.analyze", "core.encode"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("spans = %v, missing %q", spans, want)
		}
	}
	// The core steps of a miss run inside the handler, one after another.
	h0 := spans["serve.characterize"]
	prevEnd := h0.StartUnixNs
	for _, name := range []string{"core.build", "core.analyze", "core.encode"} {
		sp := spans[name]
		if sp.StartUnixNs < prevEnd || sp.StartUnixNs+sp.DurNs > h0.StartUnixNs+h0.DurNs {
			t.Fatalf("span %q [%d, +%d] is out of order or outside the handler [%d, +%d]", name, sp.StartUnixNs, sp.DurNs, h0.StartUnixNs, h0.DurNs)
		}
		prevEnd = sp.StartUnixNs + sp.DurNs
	}

	// An ID the recorder never saw yields an empty (but well-formed) trace.
	var empty trace.RequestTrace
	other := get(h, "/v1/trace?request_id=nope")
	if err := json.Unmarshal(other.Body.Bytes(), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Events) != 0 || len(empty.Spans) != 0 {
		t.Fatalf("unknown ID returned %d events, %d spans", len(empty.Events), len(empty.Spans))
	}
}

func TestRequestTraceEndpointDisabled(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{RecorderSize: -1})
	if rec := get(s.Handler(), "/v1/trace?request_id=x"); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 with recorder disabled", rec.Code)
	}
}

// TestConcurrentMissesAttributedPerRequest pins per-request attribution:
// three concurrent testfast misses on three devices, on a server with the
// default Config, each run as a pass of their own, so every request's
// /v1/trace?request_id= holds exactly one core.build, core.analyze,
// core.encode and queue.wait span and exactly a solo miss's operator
// events.
func TestConcurrentMissesAttributedPerRequest(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	solo := newTestServer(t, Config{})
	h := s.Handler()
	devs := hwsim.AllDevices()[:3]

	characterizeAs := func(h http.Handler, id, device string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
			strings.NewReader(fmt.Sprintf(`{"workload":"testfast","device":%q}`, device)))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	eventNames := func(id string, h http.Handler) ([]string, map[string]int) {
		var rt trace.RequestTrace
		if err := json.Unmarshal(get(h, "/v1/trace?request_id="+id).Body.Bytes(), &rt); err != nil {
			t.Fatalf("request trace %s: %v", id, err)
		}
		names := make([]string, len(rt.Events))
		for i, ev := range rt.Events {
			names[i] = ev.Name
		}
		spans := map[string]int{}
		for _, sp := range rt.Spans {
			spans[sp.Name]++
		}
		return names, spans
	}

	if rec := characterizeAs(solo.Handler(), "solo", devs[0].Name); rec.Code != http.StatusOK {
		t.Fatalf("solo miss: status %d: %s", rec.Code, rec.Body)
	}
	want, _ := eventNames("solo", solo.Handler())
	if len(want) == 0 {
		t.Fatal("a solo miss recorded no operator events")
	}

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, len(devs))
	for i, d := range devs {
		wg.Add(1)
		go func(i int, dev string) {
			defer wg.Done()
			recs[i] = characterizeAs(h, fmt.Sprintf("req-%d", i), dev)
		}(i, d.Name)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-NSServe-Cache") != "miss" {
			t.Fatalf("req-%d: status %d, cache %q, want 200 miss: %s", i, rec.Code, rec.Header().Get("X-NSServe-Cache"), rec.Body)
		}
	}
	if got := testCtl.runs.Load(); got != 1+int64(len(devs)) {
		t.Fatalf("engine runs = %d, want %d (the solo miss and one per request)", got, 1+len(devs))
	}
	for i := range devs {
		id := fmt.Sprintf("req-%d", i)
		got, spans := eventNames(id, h)
		for _, name := range []string{"queue.wait", "core.build", "core.analyze", "core.encode"} {
			if spans[name] != 1 {
				t.Errorf("%s's trace holds %d %s spans, want 1: %v", id, spans[name], name, spans)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s's trace holds events %v, want a solo miss's %v", id, got, want)
		}
	}
}
