package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
)

// testCtl coordinates the gated test workloads with the test body. Tests
// in this package run sequentially, so resetting it per test is safe.
var testCtl struct {
	mu      sync.Mutex
	gate    chan struct{} // Run blocks here until closed (nil = no gate)
	entered chan struct{} // Run signals here on entry (buffered)
	runs    atomic.Int64
}

func resetCtl(gated bool) {
	testCtl.mu.Lock()
	defer testCtl.mu.Unlock()
	if gated {
		testCtl.gate = make(chan struct{})
		testCtl.entered = make(chan struct{}, 32)
	} else {
		testCtl.gate = nil
		testCtl.entered = nil
	}
	testCtl.runs.Store(0)
}

func openGate() {
	testCtl.mu.Lock()
	defer testCtl.mu.Unlock()
	if testCtl.gate != nil {
		close(testCtl.gate)
		testCtl.gate = nil
	}
}

// fakeWorkload is a registry workload cheap enough for serving tests. It
// records one real event and touches the backend dispatch path so shared
// worker pools actually spawn (which the leak test depends on).
type fakeWorkload struct {
	name  string
	gated bool
}

func (f *fakeWorkload) Name() string     { return f.name }
func (f *fakeWorkload) Category() string { return "Test" }

func (f *fakeWorkload) Run(e *ops.Engine) error {
	if f.gated {
		testCtl.mu.Lock()
		gate, entered := testCtl.gate, testCtl.entered
		testCtl.mu.Unlock()
		if entered != nil {
			entered <- struct{}{}
		}
		if gate != nil {
			<-gate
		}
	}
	testCtl.runs.Add(1)
	// Force a wide dispatch so a parallel backend spawns its pool.
	e.Backend().For(1<<15, 1, func(lo, hi int) {})
	g := tensor.NewRNG(1)
	e.Add(g.Normal(0, 1, 64), g.Normal(0, 1, 64))
	return nil
}

var registerOnce sync.Once

func registerTestWorkloads() {
	registerOnce.Do(func() {
		core.RegisterWorkload("testfast", "Test", func() core.Workload { return &fakeWorkload{name: "testfast"} })
		core.RegisterWorkload("testgate", "Test", func() core.Workload { return &fakeWorkload{name: "testgate", gated: true} })
	})
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	registerTestWorkloads()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post issues one characterize request through the handler.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/characterize", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	first := post(h, `{"workload":"testfast"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-NSServe-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	second := post(h, `{"workload":"testfast"}`)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-NSServe-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit is not byte-identical to the miss")
	}
	if hits := s.st.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if runs := testCtl.runs.Load(); runs != 1 {
		t.Fatalf("workload ran %d times, want 1", runs)
	}
}

func TestCanonicalRequestsShareCacheEntry(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	if rec := post(h, `{"workload":"testfast","device":"RTX 2080 Ti"}`); rec.Code != http.StatusOK {
		t.Fatalf("first: %d %s", rec.Code, rec.Body)
	}
	// Different spelling, same canonical request → cache hit, no new run.
	rec := post(h, `{"workload":"TESTFAST","device":"rtx 2080 ti"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("second: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-NSServe-Cache"); got != "hit" {
		t.Fatalf("cache header %q, want hit", got)
	}
	if runs := testCtl.runs.Load(); runs != 1 {
		t.Fatalf("workload ran %d times, want 1", runs)
	}
}

func TestBadRequests(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	for body, wantCode := range map[string]int{
		`{"workload":"no-such-workload"}`:          http.StatusBadRequest,
		`{"workload":"testfast","device":"TPUv9"}`: http.StatusBadRequest,
		`{`:  http.StatusBadRequest,
		`{}`: http.StatusBadRequest,
	} {
		if rec := post(h, body); rec.Code != wantCode {
			t.Errorf("body %s: status %d, want %d", body, rec.Code, wantCode)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/characterize", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET characterize: %d, want 405", rec.Code)
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	resetCtl(true)
	s := newTestServer(t, Config{Concurrency: 1})
	h := s.Handler()
	const n = 6

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(h, `{"workload":"testgate"}`)
		}(i)
	}
	// The leader is executing (gated); the other n-1 must join its flight.
	waitFor(t, "worker entry", func() bool { return len(testCtl.entered) >= 1 })
	waitFor(t, "dedup joins", func() bool { return s.st.dedupJoins.Value() == n-1 })
	openGate()
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
	if runs := testCtl.runs.Load(); runs != 1 {
		t.Fatalf("%d concurrent identical requests ran the workload %d times, want exactly 1", n, runs)
	}
	if got := s.st.runSeconds.Count(); got != 1 {
		t.Fatalf("server executed %d runs, want 1", got)
	}
}

func TestFullQueueRejectsWith429(t *testing.T) {
	resetCtl(true)
	s := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	h := s.Handler()

	// Distinct devices make distinct canonical keys for the same workload.
	body := func(dev string) string {
		return fmt.Sprintf(`{"workload":"testgate","device":%q}`, dev)
	}
	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = post(h, body(hwsim.RTX2080Ti.Name)) }()
	waitFor(t, "worker busy", func() bool { return len(testCtl.entered) >= 1 })
	wg.Add(1)
	go func() { defer wg.Done(); results[1] = post(h, body(hwsim.XavierNX.Name)) }()
	waitFor(t, "queue full", func() bool { return len(s.queue) == 1 })

	rejected := post(h, body(hwsim.JetsonTX2.Name))
	if rejected.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", rejected.Code)
	}
	if rejected.Header().Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	if got := s.st.rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	openGate()
	wg.Wait()
	for i, rec := range results {
		if rec.Code != http.StatusOK {
			t.Fatalf("admitted request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}

func TestAbandonedQueuedWorkIsDropped(t *testing.T) {
	resetCtl(true)
	s := newTestServer(t, Config{Concurrency: 1, QueueDepth: 2})
	h := s.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	var first *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		first = post(h, fmt.Sprintf(`{"workload":"testgate","device":%q}`, hwsim.RTX2080Ti.Name))
	}()
	waitFor(t, "worker busy", func() bool { return len(testCtl.entered) >= 1 })

	// Second request queues behind the gated run, then its client leaves.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
		strings.NewReader(fmt.Sprintf(`{"workload":"testgate","device":%q}`, hwsim.XavierNX.Name))).WithContext(ctx)
	rec := httptest.NewRecorder()
	wg.Add(1)
	go func() { defer wg.Done(); h.ServeHTTP(rec, req) }()
	waitFor(t, "second request queued", func() bool { return len(s.queue) == 1 })
	cancel()
	waitFor(t, "waiter departure", func() bool { return s.st.timeouts.Value() == 1 })

	openGate()
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body)
	}
	if rec.Code != statusClientClosed {
		t.Fatalf("canceled request: %d, want %d", rec.Code, statusClientClosed)
	}
	waitFor(t, "queued work dropped", func() bool { return s.st.abandoned.Value() == 1 })
	if runs := s.st.runSeconds.Count(); runs != 1 {
		t.Fatalf("server executed %d runs, want 1 (abandoned work must not run)", runs)
	}
}

func TestCloseDrainsInFlightWork(t *testing.T) {
	resetCtl(true)
	registerTestWorkloads()
	s, err := New(Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[0] = post(h, fmt.Sprintf(`{"workload":"testgate","device":%q}`, hwsim.RTX2080Ti.Name))
	}()
	waitFor(t, "worker busy", func() bool { return len(testCtl.entered) >= 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[1] = post(h, fmt.Sprintf(`{"workload":"testgate","device":%q}`, hwsim.XavierNX.Name))
	}()
	waitFor(t, "second request queued", func() bool { return len(s.queue) == 1 })

	// Release the gate and close concurrently: Close must block until both
	// the running and the queued characterization have been served.
	go func() {
		time.Sleep(20 * time.Millisecond)
		openGate()
	}()
	s.Close()
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d after drain: %d %s", i, rec.Code, rec.Body)
		}
	}
	if runs := s.st.runSeconds.Count(); runs != 2 {
		t.Fatalf("drained runs = %d, want 2", runs)
	}
	// New (uncached) work after shutdown is refused, not queued. Cached
	// keys keep serving — only fresh characterizations are turned away.
	body := fmt.Sprintf(`{"workload":"testgate","device":%q}`, hwsim.JetsonTX2.Name)
	if rec := post(h, body); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: %d, want 503", rec.Code)
	}
}

func TestCloseTearsDownWorkerPool(t *testing.T) {
	resetCtl(false)
	registerTestWorkloads()
	before := runtime.NumGoroutine()
	s, err := New(Config{
		Engine:      ops.Config{Backend: ops.BackendParallel, Workers: 4},
		Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run one characterization so the shared backend pool actually spawns.
	if rec := post(s.Handler(), `{"workload":"testfast"}`); rec.Code != http.StatusOK {
		t.Fatalf("characterize: %d %s", rec.Code, rec.Body)
	}
	s.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, want <= %d (worker pool leaked)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkloadsListingBuildsNothing pins /v1/workloads to the registry's
// recorded identities: the body is byte-identical to listing every built
// workload's Name and Category, and serving it constructs no model.
func TestWorkloadsListingBuildsNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	builds := func() (n int64) {
		for _, name := range core.WorkloadNames() {
			n += core.WorkloadBuilds(name)
		}
		return n
	}
	before := builds()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads: %d %s", rec.Code, rec.Body)
	}
	if after := builds(); after != before {
		t.Fatalf("listing the workloads built %d models", after-before)
	}

	type entry struct {
		Name     string `json:"name"`
		Category string `json:"category"`
	}
	var list []entry
	for _, name := range core.WorkloadNames() {
		wl, err := core.BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, entry{Name: wl.Name(), Category: wl.Category()})
	}
	want, err := json.Marshal(list)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("workloads body:\n got %s\nwant %s", got, want)
	}
}

func TestWorkloadsAndStatsEndpoints(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/workloads", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads: %d %s", rec.Code, rec.Body)
	}
	var list []struct{ Name, Category string }
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("workloads JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range list {
		names[e.Name] = true
	}
	for _, want := range core.SuiteNames() {
		if !names[want] {
			t.Fatalf("workloads listing is missing %s (got %v)", want, names)
		}
	}

	if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
		t.Fatalf("characterize: %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if snap.Requests != 1 || snap.Runs != 1 || snap.CacheSize != 1 {
		t.Fatalf("stats snapshot %+v, want 1 request / 1 run / 1 cached", snap)
	}
	if snap.AvgRunNanos <= 0 {
		t.Fatalf("avg run nanos = %d, want > 0", snap.AvgRunNanos)
	}
}

// TestRealWorkloadReport runs a genuine suite workload end to end through
// the server and sanity-checks the report JSON.
func TestRealWorkloadReport(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	first := post(h, `{"workload":"LNN"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("LNN characterize: %d %s", first.Code, first.Body)
	}
	var report struct {
		Name          string  `json:"name"`
		TotalNs       int64   `json:"total_ns"`
		SymbolicShare float64 `json:"symbolic_share"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &report); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if report.Name != "LNN" || report.TotalNs <= 0 {
		t.Fatalf("implausible report: %+v", report)
	}
	if report.SymbolicShare <= 0 || report.SymbolicShare >= 1 {
		t.Fatalf("LNN symbolic share = %v, want in (0, 1)", report.SymbolicShare)
	}
	second := post(h, `{"workload":"lnn"}`)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached real-workload report is not byte-identical")
	}
}

func TestCanonicalizeKeys(t *testing.T) {
	registerTestWorkloads()
	a, keyA, err := Canonicalize(Request{Workload: " nvsa "})
	if err != nil {
		t.Fatal(err)
	}
	if a.Workload != "NVSA" || a.Device != hwsim.RTX2080Ti.Name {
		t.Fatalf("canonical form %+v", a)
	}
	_, keyB, err := Canonicalize(Request{Workload: "NVSA", Device: "rtx 2080 ti"})
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("equivalent requests got different keys %q vs %q", keyA, keyB)
	}
	if _, _, err := Canonicalize(Request{}); err == nil {
		t.Fatal("empty request must not canonicalize")
	}
}

// FuzzCanonicalize: for any two requests that canonicalize, each canonical
// form canonicalizes to itself under the same key, the key is
// Workload+"\x00"+Device, and the two keys are equal exactly when the
// canonical forms are, so equivalent spellings share one cache entry and
// distinct characterizations never do.
func FuzzCanonicalize(f *testing.F) {
	registerTestWorkloads()
	for _, seed := range [][4]string{
		{"nvsa", "rtx 2080 ti", "NVSA", "RTX 2080 Ti"},     // case
		{" NVSA ", "\tJetson TX2\n", "nvsa", "jetson tx2"}, // whitespace
		{"LNN", "", "lnn", hwsim.RTX2080Ti.Name},           // empty device
		{"LNN", "", "LTN", ""},
		{"PrAE", "Xavier NX", "PrAE", "Xeon Silver 4114"},
		{"nope", "", "NVSA", "tpu"}, // unknown names
		{"", "", " ", "RTX 2080 Ti"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, w1, d1, w2, d2 string) {
		var canon [2]Request
		var keys [2]string
		ok := true
		for i, req := range []Request{{Workload: w1, Device: d1}, {Workload: w2, Device: d2}} {
			c, key, err := Canonicalize(req)
			if err != nil {
				ok = false
				continue
			}
			if key != c.Workload+"\x00"+c.Device {
				t.Fatalf("%+v: key %q is not workload NUL device of %+v", req, key, c)
			}
			again, againKey, err := Canonicalize(c)
			if err != nil || again != c || againKey != key {
				t.Fatalf("%+v: canonical form %+v is not a fixed point: %+v, %q, %v", req, c, again, againKey, err)
			}
			canon[i], keys[i] = c, key
		}
		if ok && (keys[0] == keys[1]) != (canon[0] == canon[1]) {
			t.Fatalf("keys %q, %q disagree with canonical forms %+v, %+v", keys[0], keys[1], canon[0], canon[1])
		}
	})
}

// FuzzCacheFill posts any body to /v1/cache/fill on an empty cache. The
// replica installs it (204) exactly when the body's request canonicalizes
// and its report is a JSON object whose "name" is the canonical workload
// and whose "device" is the canonical device; a hit on that key then serves the report's bytes unchanged. Any other
// body is refused with 400 and leaves the cache empty.
func FuzzCacheFill(f *testing.F) {
	for _, seed := range []string{
		`{"request":{"workload":"LNN"},"report":{"name":"LNN","device":"RTX 2080 Ti","total_ns":1}}`,
		`{"request":{"workload":"nvsa","device":"jetson tx2"},"report":{"name":"NVSA","device":"Jetson TX2"}}`,
		`{"request":{"workload":"NVSA","device":"Jetson TX2"},"report":{"name":"NVSA","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA","device":"Jetson TX2"},"report":{"name":"NVSA","device":"jetson tx2"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"NVSA"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"NVSA","DEVICE":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"NVSA","device":null}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"LNN","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"nvsa","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"NAME":"NVSA","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"LNN","name":"NVSA","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":null,"device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":1}`,
		`{"request":{"workload":"NVSA"},"report":["name","NVSA"]}`,
		`{"request":{"workload":"NVSA"},"report":null}`,
		`{"request":{"workload":"NVSA"}}`,
		`{"request":{"workload":"GPT"},"report":{"name":"GPT","device":"RTX 2080 Ti"}}`,
		`{"request":{"workload":"NVSA"},"report":{"name":"NVSA","device":"RTX 2080 Ti"}} trailing`,
		`{"request":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f, Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		s.mu.Lock()
		s.cache = newLRU(s.cfg.CacheSize)
		s.mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cache/fill", bytes.NewReader(body)))

		var fill FillRequest
		var report map[string]any
		want := http.StatusBadRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&fill) == nil && json.Unmarshal(fill.Report, &report) == nil {
			if canon, _, err := Canonicalize(fill.Request); err == nil && report["name"] == canon.Workload && report["device"] == canon.Device {
				want = http.StatusNoContent
			}
		}
		if rec.Code != want {
			t.Fatalf("fill %q: status %d, want %d (%s)", body, rec.Code, want, rec.Body)
		}
		if want != http.StatusNoContent {
			if n := s.cache.Len(); n != 0 {
				t.Fatalf("refused fill %q left %d cache entries", body, n)
			}
			return
		}
		req, err := json.Marshal(fill.Request)
		if err != nil {
			t.Fatal(err)
		}
		hit := post(h, string(req))
		if hit.Code != http.StatusOK || hit.Header().Get("X-NSServe-Cache") != "hit" || !bytes.Equal(hit.Body.Bytes(), fill.Report) {
			t.Fatalf("after fill %q: %d %q %q", body, hit.Code, hit.Header().Get("X-NSServe-Cache"), hit.Body)
		}
	})
}

func TestRetryAfterScalesWithLoad(t *testing.T) {
	resetCtl(true)
	s := newTestServer(t, Config{Concurrency: 1, QueueDepth: 8})

	// Idle, no history: the hint is the 1-second floor.
	if got := s.retryAfterHint(); got != "1" {
		t.Fatalf("idle hint = %s, want 1", got)
	}

	// Three 2-second runs of history and an empty queue: the next run is
	// expected to take ~2s, so the hint follows the observed mean.
	for i := 0; i < 3; i++ {
		s.st.recordRun(2 * time.Second)
	}
	if got := s.retryAfterHint(); got != "2" {
		t.Fatalf("mean-informed hint = %s, want 2", got)
	}

	// Saturate the queue: one gated run occupies the worker, more queue
	// behind it. The drain estimate now covers every queued run, so a
	// saturated server must report a strictly larger hint than an idle one.
	var wg sync.WaitGroup
	devices := []string{hwsim.RTX2080Ti.Name, hwsim.XavierNX.Name, hwsim.JetsonTX2.Name}
	for _, dev := range devices {
		dev := dev
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(s.Handler(), fmt.Sprintf(`{"workload":"testgate","device":%q}`, dev))
		}()
	}
	waitFor(t, "worker busy", func() bool { return len(testCtl.entered) >= 1 })
	waitFor(t, "queue backlog", func() bool { return len(s.queue) == len(devices)-1 })
	saturated := s.retryAfterHint()
	// mean 2s × (2 queued + 1 new) ÷ 1 worker = 6s.
	if saturated != "6" {
		t.Fatalf("saturated hint = %s, want 6", saturated)
	}
	openGate()
	wg.Wait()
}

func TestRetryAfterClampedToTimeout(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{Concurrency: 1, RequestTimeout: 5 * time.Second})
	// One absurdly slow observed run must not produce a hint beyond the
	// request timeout: a client told to come back later than its own
	// deadline would never be served.
	s.st.recordRun(10 * time.Minute)
	if got := s.retryAfterHint(); got != "5" {
		t.Fatalf("hint = %s, want clamp to request timeout (5)", got)
	}
}

// TestDrainReadiness covers the liveness/readiness split: BeginDrain
// flips /readyz to 503 (so health checkers eject the replica) while
// /healthz and the serving path keep answering — the listener is still
// open, only routing should stop.
func TestDrainReadiness(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", rec.Code)
	}
	if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
		t.Fatalf("characterize: %d %s", rec.Code, rec.Body)
	}

	s.BeginDrain()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness must survive a drain)", rec.Code)
	}
	// Draining only flips readiness: cached and fresh work still serve
	// until the listener actually closes.
	if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
		t.Fatalf("characterize while draining: %d %s", rec.Code, rec.Body)
	}
	if rec := post(h, fmt.Sprintf(`{"workload":"testfast","device":%q}`, hwsim.XavierNX.Name)); rec.Code != http.StatusOK {
		t.Fatalf("fresh characterize while draining: %d %s", rec.Code, rec.Body)
	}

	s.Close()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed /readyz = %d, want 503", rec.Code)
	}
}

func TestLRUEvicts(t *testing.T) {
	c := newLRU(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	disabled := newLRU(-1)
	disabled.Put("x", []byte("1"))
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("disabled cache must not store")
	}
}
