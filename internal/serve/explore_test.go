package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/hwsim"
)

// postExplore issues one explore request through the handler and parses
// the NDJSON stream.
func postExplore(t *testing.T, h http.Handler, body string) (int, []dse.Chunk) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	var chunks []dse.Chunk
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c dse.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		chunks = append(chunks, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rec.Code, chunks
}

// exploreBody is a small 2x2x2 = 8-point sweep over the test workload.
const exploreBody = `{"workload":"testfast","space":{
	"peak_gflops":{"values":[2000,8000]},
	"mem_bw_gbs":{"values":[200,800]},
	"l1_kb":{"values":[32,128]}}}`

func TestExploreStreamShape(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	code, chunks := postExplore(t, s.Handler(), exploreBody)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(chunks) != 10 { // meta + 8 points + summary
		t.Fatalf("got %d chunks, want 10", len(chunks))
	}
	meta := chunks[0]
	if meta.Type != "meta" || meta.Meta == nil {
		t.Fatalf("first chunk is %+v, want meta", meta)
	}
	if meta.Meta.Workload != "testfast" || meta.Meta.GridSize != 8 || meta.Meta.ShardCount != 1 {
		t.Fatalf("meta = %+v", meta.Meta)
	}
	seen := map[int]bool{}
	for _, c := range chunks[1:9] {
		if c.Type != "point" || c.Point == nil {
			t.Fatalf("middle chunk is %+v, want point", c)
		}
		if c.Point.Err != "" {
			t.Fatalf("point %d failed: %s", c.Point.Index, c.Point.Err)
		}
		seen[c.Point.Index] = true
	}
	if len(seen) != 8 {
		t.Fatalf("points cover %d distinct indices, want 8", len(seen))
	}
	last := chunks[9]
	if last.Type != "summary" || last.Summary == nil {
		t.Fatalf("last chunk is %+v, want summary", last)
	}
	sum := last.Summary
	if sum.Workload != "testfast" || sum.Evaluated != 8 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.FrontSize == 0 || len(sum.Front) != sum.FrontSize {
		t.Fatalf("front missing: %+v", sum)
	}
}

// TestExploreTraceOnce pins trace-once/project-many end to end: two sweeps
// (and a sharded pair) over the same workload run the workload exactly once.
func TestExploreTraceOnce(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if code, _ := postExplore(t, h, exploreBody); code != http.StatusOK {
			t.Fatalf("sweep %d: status %d", i, code)
		}
	}
	sharded := `{"workload":"testfast","shard_index":1,"shard_count":2,"space":{
		"peak_gflops":{"values":[2000,8000]}}}`
	postExplore(t, h, sharded)
	if n := testCtl.runs.Load(); n != 1 {
		t.Fatalf("workload ran %d times across 3 sweeps, want 1 (trace cache)", n)
	}
}

func TestExploreShardedSweep(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	_, full := postExplore(t, h, exploreBody)
	fullSum := full[len(full)-1].Summary

	seen := map[int]bool{}
	var fronts [][]dse.PointResult
	for shard := 0; shard < 2; shard++ {
		body := fmt.Sprintf(`{"workload":"testfast","shard_index":%d,"shard_count":2,"space":{
			"peak_gflops":{"values":[2000,8000]},
			"mem_bw_gbs":{"values":[200,800]},
			"l1_kb":{"values":[32,128]}}}`, shard)
		code, chunks := postExplore(t, h, body)
		if code != http.StatusOK {
			t.Fatalf("shard %d: status %d", shard, code)
		}
		sum := chunks[len(chunks)-1].Summary
		if sum.Evaluated != 4 || sum.ShardIndex != shard || sum.ShardCount != 2 {
			t.Fatalf("shard %d summary = %+v", shard, sum)
		}
		for _, c := range chunks[1 : len(chunks)-1] {
			if c.Point.Index%2 != shard {
				t.Fatalf("shard %d emitted index %d", shard, c.Point.Index)
			}
			seen[c.Point.Index] = true
		}
		fronts = append(fronts, sum.Front)
	}
	if len(seen) != 8 {
		t.Fatalf("shards covered %d indices, want 8", len(seen))
	}
	merged, _ := json.Marshal(dse.MergeFronts(fronts...))
	want, _ := json.Marshal(fullSum.Front)
	if string(merged) != string(want) {
		t.Fatalf("merged shard fronts != full front:\n%s\n%s", merged, want)
	}
}

// nineAxes sweeps every knob over 256 steps: 2^72 points, more than an
// int holds.
var nineAxes = func() string {
	var parts []string
	for _, k := range []string{"peak_gflops", "mem_bw_gbs", "pes", "freq_scale", "dataflow_eff", "l1_kb", "l2_kb", "cache_ways", "line_bytes"} {
		parts = append(parts, `"`+k+`":{"min":1,"max":2,"steps":256}`)
	}
	return strings.Join(parts, ",")
}()

func TestExploreValidation(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{ExploreMaxPoints: 4})
	h := s.Handler()
	cases := []struct {
		name, body string
		want       int
		msg        string // a substring of the error body, when set
	}{
		{"bad json", `{`, http.StatusBadRequest, ""},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest, ""},
		{"bad space", `{"workload":"testfast","space":{"peak_gflops":{"min":5,"max":1,"steps":3}}}`, http.StatusBadRequest, ""},
		{"grid too large", exploreBody, http.StatusBadRequest, ""},
		// Sized before anything is allocated for it: 2^40 steps is a
		// 2^40-point grid, rejected by the point limit.
		{"huge steps", `{"workload":"testfast","space":{"peak_gflops":{"min":1,"max":2,"steps":1099511627776}}}`, http.StatusBadRequest, "grid has 1099511627776 points"},
		{"grid overflows int", `{"workload":"testfast","space":{` + nineAxes + `}}`, http.StatusBadRequest, "more than"},
		{"bad shard", `{"workload":"testfast","shard_index":3,"shard_count":2}`, http.StatusBadRequest, ""},
		{"wrong method", ``, http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		var rec *httptest.ResponseRecorder
		if tc.name == "wrong method" {
			req := httptest.NewRequest(http.MethodGet, "/v1/explore", nil)
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		} else {
			req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(tc.body))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		}
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestExploreStatsAndMetrics(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	postExplore(t, h, exploreBody)

	snap := s.st.snapshot()
	if snap.SweepsRun != 1 || snap.PointsEvaluated != 8 {
		t.Fatalf("stats sweeps=%d points=%d, want 1/8", snap.SweepsRun, snap.PointsEvaluated)
	}

	rec := get(h, "/metrics")
	body := rec.Body.String()
	for _, m := range []string{
		"ns_explore_sweeps_total 1",
		"ns_explore_points_total 8",
		"ns_explore_shards_inflight 0",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("/metrics missing %q", m)
		}
	}
}

// TestExploreConcurrencyLimit pins the 429 backpressure contract: with the
// semaphore held, a new sweep is rejected with Retry-After.
func TestExploreConcurrencyLimit(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{ExploreConcurrency: 1})
	s.exploreSem <- struct{}{} // saturate
	defer func() { <-s.exploreSem }()
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(exploreBody))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestExploreRecorderSpan pins request-ID propagation into the flight
// recorder: a sweep leaves an explore.sweep event under its request ID.
func TestExploreRecorderSpan(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(exploreBody))
	req.Header.Set("X-Request-ID", "sweep-42")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	found := false
	for _, e := range s.recorder.Snapshot() {
		if e.ID == "sweep-42" && e.Ev.Name == "explore.sweep" {
			found = true
			if e.Ev.Bytes != 8 {
				t.Fatalf("sweep span counted %d points, want 8", e.Ev.Bytes)
			}
		}
	}
	if !found {
		t.Fatal("no explore.sweep event recorded under the request ID")
	}
}

// FuzzExploreRequest drives the explore request boundary: any body that
// decodes as an ExploreRequest is resolved against every modeled device,
// as both tiers do before sweeping. Resolve must never panic, and it must
// size the grid before allocating for it: what it allocates is bounded by
// the request's own length (explicit value lists), never by the grid, so
// `steps: 1<<40` or an int-overflowing product costs nothing.
func FuzzExploreRequest(f *testing.F) {
	def, err := json.Marshal(ExploreRequest{Workload: "NVSA", Space: dse.DefaultSpace()})
	if err != nil {
		f.Fatal(err)
	}
	wide := `{"min":1,"max":2,"steps":256}`
	for _, seed := range []string{
		string(def),
		`{"workload":"NVSA","space":{}}`,
		`{"workload":"NVSA","space":{"peak_gflops":` + wide + `,"mem_bw_gbs":` + wide + `,"pes":` + wide +
			`,"freq_scale":` + wide + `,"dataflow_eff":` + wide + `,"l1_kb":` + wide + `,"l2_kb":` + wide +
			`,"cache_ways":` + wide + `,"line_bytes":` + wide + `}}`,
		`{"workload":"NVSA","space":{"pes":{"min":1,"max":64,"steps":1099511627776}}}`,
		`{"workload":"NVSA","space":{"pes":{"min":1,"max":2,"steps":-3}}}`,
		`{"workload":"NVSA","space":{"l1_kb":{"values":[32,64,-1]},"pes":{"min":0,"max":8,"steps":4,"log":true}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExploreRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		for _, d := range hwsim.AllDevices() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			grid, err := dse.Resolve(d, req.Space)
			runtime.ReadMemStats(&after)
			if limit := uint64(16<<10 + 16*len(body)); after.TotalAlloc-before.TotalAlloc > limit {
				t.Fatalf("%s: Resolve allocated %d bytes for a %d-byte request, want <= %d", d.Name, after.TotalAlloc-before.TotalAlloc, len(body), limit)
			}
			if err != nil {
				continue
			}
			if grid.Size() < 1 {
				t.Fatalf("%s: resolved grid has %d points", d.Name, grid.Size())
			}
			grid.Knobs(0)
			grid.Knobs(grid.Size() - 1)
		}
	})
}
