package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
)

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec := get(h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodHead, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz HEAD: %d", rec.Code)
	}
}

// TestMethodNotAllowedSetsAllow: every endpoint must answer a wrong
// method with 405 and the Allow header RFC 9110 requires.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		path, method, wantAllow string
	}{
		{"/v1/workloads", http.MethodPost, "GET"},
		{"/v1/stats", http.MethodDelete, "GET"},
		{"/v1/characterize", http.MethodGet, "POST"},
		{"/metrics", http.MethodPost, "GET, HEAD"},
		{"/healthz", http.MethodPut, "GET, HEAD"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: code %d, want 405", c.method, c.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != c.wantAllow {
			t.Fatalf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.wantAllow)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// exposition carries every acceptance-relevant family: request-latency
// histogram buckets, cache counters, queue/pool gauges, Go runtime stats.
func TestMetricsEndpoint(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{Engine: ops.Config{Backend: ops.BackendParallel, Workers: 2}})
	h := s.Handler()
	if rec := post(h, `{"workload":"testfast"}`); rec.Code != 200 {
		t.Fatalf("characterize: %d", rec.Code)
	}
	if rec := post(h, `{"workload":"testfast"}`); rec.Code != 200 { // cache hit
		t.Fatalf("characterize: %d", rec.Code)
	}

	rec := get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`nsserve_http_request_seconds_bucket{endpoint="/v1/characterize",le="+Inf"} 2`,
		`nsserve_http_requests_total{endpoint="/v1/characterize",code="200"} 2`,
		"nsserve_requests_total 2",
		"nsserve_cache_hits_total 1",
		"nsserve_cache_misses_total 1",
		"nsserve_cache_evictions_total 0",
		"nsserve_cache_entries 1",
		"nsserve_queue_depth 0",
		"nsserve_inflight_runs 0",
		"nsserve_run_seconds_count 1",
		"ns_backend_workers 2",
		"ns_pool_splits_total",
		"ns_op_seconds_count",
		"go_goroutines ",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestStatsMatchesMetrics cross-checks the legacy JSON view against the
// registry it now fronts.
func TestStatsMatchesMetrics(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	post(h, `{"workload":"testfast"}`)
	post(h, `{"workload":"testfast"}`)

	rec := get(h, "/v1/stats")
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 2 || snap.CacheHits != 1 || snap.Runs != 1 {
		t.Fatalf("snapshot %+v, want 2 requests / 1 hit / 1 run", snap)
	}
	if snap.AvgRunNanos <= 0 || snap.RunNanos < snap.AvgRunNanos {
		t.Fatalf("torn averages: %+v", snap)
	}
	if got := int64(s.st.requests.Value()); got != snap.Requests {
		t.Fatalf("registry requests %d != snapshot %d", got, snap.Requests)
	}
}

// TestStatsReadsHistograms: /v1/stats derives runs from the histogram
// /metrics exposes, not from a counter of its own, so the two views agree
// exactly. Nothing counts batches: /metrics has no batch family and
// batches_run and avg_occupancy read 0.
func TestStatsReadsHistograms(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, d := range hwsim.AllDevices() {
		postDevice(h, "testfast", d.Name)
	}

	var snap Snapshot
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	scrape := get(h, "/metrics").Body.String()
	for _, gone := range []string{"nsserve_runs_total", "nsserve_batches_total", "nsserve_batch_items_total",
		"nsserve_batch_occupancy", "nsserve_coalesce_flushes_total"} {
		if strings.Contains(scrape, gone) {
			t.Errorf("/metrics still exposes %s", gone)
		}
	}
	var runs float64
	found := false
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, "nsserve_run_seconds_count "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			runs, found = f, true
		}
	}
	if !found {
		t.Fatal("/metrics has no nsserve_run_seconds_count sample")
	}
	if snap.Runs == 0 || float64(snap.Runs) != runs {
		t.Errorf("runs = %d, nsserve_run_seconds_count = %v", snap.Runs, runs)
	}
	if snap.BatchesRun != 0 || snap.AvgOccupancy != 0 {
		t.Errorf("batches_run = %d, avg_occupancy = %v, want 0 and 0", snap.BatchesRun, snap.AvgOccupancy)
	}
}

// TestStatsJSONShape pins the exact field set and order of /v1/stats so
// the endpoint stays byte-compatible with the pre-metrics servers: every
// pre-batching field keeps its position, and the batching counters only
// append after them.
func TestStatsJSONShape(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	rec := get(s.Handler(), "/v1/stats")
	prefix := `{"requests":0,"cache_hits":0,"cache_misses":0,"dedup_joins":0,"rejected":0,"timeouts":0,"abandoned":0,"failures":0,"runs":0,"run_nanos_total":0,"avg_run_nanos":0,"cache_size":0,"queue_depth":0`
	want := prefix + `,"batches_run":0,"avg_occupancy":0,"sweeps_run":0,"points_evaluated":0,"cache_fills":0}`
	got := strings.TrimSpace(rec.Body.String())
	if !strings.HasPrefix(got, prefix) {
		t.Fatalf("/v1/stats pre-batching prefix changed:\ngot:  %s\nwant prefix: %s", got, prefix)
	}
	if got != want {
		t.Fatalf("/v1/stats shape changed:\ngot:  %s\nwant: %s", got, want)
	}
}
