package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/serve"
)

// exploreSpace is a 4x4x2x2x2x2 = 256-point space, comfortably above the
// 200-point fan-out floor pinned by the acceptance criteria.
const exploreSpace = `{
	"peak_gflops":{"min":1000,"max":16000,"steps":4,"log":true},
	"mem_bw_gbs":{"min":60,"max":1200,"steps":4,"log":true},
	"pes":{"values":[1,2]},
	"dataflow_eff":{"values":[1,1.5]},
	"l1_kb":{"values":[64,128]},
	"l2_kb":{"values":[2048,8192]}}`

// postExploreStream issues one explore request and parses the NDJSON
// stream into chunks, keeping each point line's raw bytes for the
// byte-identity assertions.
func postExploreStream(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, []dse.Chunk, map[int]string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil, nil
	}
	var chunks []dse.Chunk
	rawPoints := make(map[int]string)
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var c dse.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %.120q: %v", sc.Text(), err)
		}
		chunks = append(chunks, c)
		if c.Type == "point" {
			rawPoints[c.Point.Index] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rec, chunks, rawPoints
}

// TestExploreFanOut is the end-to-end pin for the distributed sweep: a
// ~256-point grid fanned across two live replicas streams incrementally,
// fails zero points, and merges to a global Pareto front byte-identical
// to the one a single replica computes over the whole grid.
func TestExploreFanOut(t *testing.T) {
	wls := testWorkloads()
	repA, repB := startReplica(t, serve.Config{}), startReplica(t, serve.Config{})
	rt, err := New(Config{Replicas: []string{repA.hs.URL, repB.hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	body := `{"workload":"` + wls[0] + `","space":` + exploreSpace + `}`
	rec, chunks, rawPoints := postExploreStream(t, rt.Handler(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	meta := chunks[0]
	if meta.Type != "meta" || meta.Meta == nil {
		t.Fatalf("first chunk %+v, want meta", meta)
	}
	if meta.Meta.GridSize != 256 || meta.Meta.Shards != 2 {
		t.Fatalf("meta = %+v, want 256 points over 2 shards", meta.Meta)
	}

	last := chunks[len(chunks)-1]
	if last.Type != "summary" || last.Summary == nil {
		t.Fatalf("last chunk %+v, want summary", last)
	}
	sum := last.Summary
	if len(sum.Errors) != 0 {
		t.Fatalf("shard errors: %v", sum.Errors)
	}
	if sum.Evaluated != 256 || sum.Failed != 0 {
		t.Fatalf("evaluated %d failed %d, want 256/0", sum.Evaluated, sum.Failed)
	}
	if len(rawPoints) != 256 {
		t.Fatalf("stream carried %d distinct points, want 256", len(rawPoints))
	}
	if sum.FrontSize == 0 || len(sum.Front) != sum.FrontSize {
		t.Fatalf("merged front missing: size %d, len %d", sum.FrontSize, len(sum.Front))
	}

	// Both replicas actually served shards: the fan-out was real.
	if rt.exploreShards.Value() != 2 {
		t.Fatalf("%d shard streams completed, want 2", rt.exploreShards.Value())
	}

	// Single-node reference: the same sweep on one replica directly.
	resp, err := http.Post(repA.hs.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var single *dse.Summary
	singlePoints := make(map[int]string)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var c dse.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		switch c.Type {
		case "point":
			singlePoints[c.Point.Index] = sc.Text()
		case "summary":
			single = c.Summary
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if single == nil {
		t.Fatal("single-node sweep produced no summary")
	}

	// The acceptance pin: the merged cluster front is byte-identical to
	// the single-node front.
	merged, _ := json.Marshal(sum.Front)
	ref, _ := json.Marshal(single.Front)
	if !bytes.Equal(merged, ref) {
		t.Fatalf("merged front != single-node front:\n%s\n%s", merged, ref)
	}
	// And so is every streamed point line (determinism across replicas).
	for idx, line := range singlePoints {
		if got, ok := rawPoints[idx]; !ok || got != line {
			t.Fatalf("point %d differs between cluster and single node:\n%s\n%s", idx, rawPoints[idx], line)
		}
	}
}

// TestExploreFanOutShardRetry pins shard failover: with one replica dead
// at stream time, its shards fail over to the live one and the sweep
// still completes every point with an exact front.
func TestExploreFanOutShardRetry(t *testing.T) {
	wls := testWorkloads()
	repA, repB := startReplica(t, serve.Config{}), startReplica(t, serve.Config{})
	rt, err := New(Config{Replicas: []string{repA.hs.URL, repB.hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	// Kill B's listener without telling the health checker: the router
	// still plans 2 shards, and B's shard must fail over to A.
	repB.hs.Close()

	body := `{"workload":"` + wls[1] + `","space":` + exploreSpace + `}`
	rec, chunks, rawPoints := postExploreStream(t, rt.Handler(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	sum := chunks[len(chunks)-1].Summary
	if sum == nil {
		t.Fatal("no summary chunk")
	}
	if len(sum.Errors) != 0 {
		t.Fatalf("shard errors after failover: %v", sum.Errors)
	}
	if sum.Evaluated != 256 || len(rawPoints) != 256 {
		t.Fatalf("evaluated %d, streamed %d distinct points, want 256/256", sum.Evaluated, len(rawPoints))
	}
	if sum.FrontSize == 0 {
		t.Fatal("empty front after failover")
	}
}

// TestExploreRouterValidation pins the router-side request checks.
func TestExploreRouterValidation(t *testing.T) {
	testWorkloads()
	rep := startReplica(t, serve.Config{})
	rt, err := New(Config{Replicas: []string{rep.hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
		{"client-set shards", `{"workload":"clusterfast-a","shard_count":4}`, http.StatusBadRequest},
		{"bad space", `{"workload":"clusterfast-a","space":{"pes":{"min":2,"max":1,"steps":2}}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestExploreRouterPassesReplicaRefusal pins the router's answer when every
// replica refuses the sweep: the grid is over the replicas' point limit,
// which the router does not know, so each shard comes back 400 before any
// point streams. The client must get that 400 and the replica's reason,
// not a 200 stream whose summary evaluated nothing.
func TestExploreRouterPassesReplicaRefusal(t *testing.T) {
	wls := testWorkloads()
	rep := startReplica(t, serve.Config{ExploreMaxPoints: 4})
	rt, err := New(Config{Replicas: []string{rep.hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	body := `{"workload":"` + wls[0] + `","space":{"pes":{"min":1,"max":64,"steps":1099511627776}}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); !strings.Contains(got, "grid has 1099511627776 points, limit 4") {
		t.Fatalf("body %q does not carry the replica's refusal", got)
	}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "ndjson") {
		t.Fatalf("a refused sweep must not be labelled a stream, Content-Type %q", ct)
	}
}

// FuzzShardStream feeds arbitrary bytes to the router as one shard's
// NDJSON explore stream. Two stub replicas answer a 4-point sweep: shard 0
// with a fixed valid stream (points 0 and 2), shard 1 with the fuzzed
// body. The router's answer must stay a well-formed sweep: meta first,
// summary last, points between. Every point index is in the grid and
// streamed once; an even index carries shard 0's line byte for byte, an
// odd one a line of the fuzzed body. The summary never counts more points
// than the grid holds, nor a negative or impossible failure count, and
// its front holds only grid indices.
func FuzzShardStream(f *testing.F) {
	const gridSize = 4
	point := func(i int) string {
		b, err := json.Marshal(dse.Chunk{Type: "point", Point: &dse.PointResult{Index: i, LatencyNs: int64(100 - i), Cost: float64(i)}})
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	summary := func(evaluated, failed int, front ...int) string {
		s := &dse.Summary{Evaluated: evaluated, Failed: failed, FrontSize: len(front)}
		for _, i := range front {
			s.Front = append(s.Front, dse.PointResult{Index: i, LatencyNs: int64(100 - i), Cost: float64(i)})
		}
		b, err := json.Marshal(dse.Chunk{Type: "summary", Summary: s})
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	meta := `{"type":"meta","meta":{"grid_size":4}}`
	fixed := strings.Join([]string{meta, point(0), point(2), summary(2, 0, 0, 2)}, "\n") + "\n"
	f.Add([]byte(strings.Join([]string{meta, point(1), point(3), summary(2, 0, 1, 3)}, "\n")))
	f.Add([]byte(strings.Join([]string{meta, point(1), point(1), point(3), summary(2, 1, 3)}, "\n")))
	f.Add([]byte(strings.Join([]string{point(-1), point(3), summary(2, 0)}, "\n")))
	f.Add([]byte(strings.Join([]string{point(4), summary(1, 0)}, "\n")))
	f.Add([]byte(strings.Join([]string{`{"type":"point","point":{"index":2,"latency_ns":7}}`, summary(1, 0)}, "\n")))
	f.Add([]byte(summary(-5, -1)))
	f.Add([]byte(summary(2, 3)))
	f.Add([]byte(summary(9223372036854775807, 0)))
	f.Add([]byte(summary(1, 0, 2)))
	f.Add([]byte(`{"type":"point"}`))
	f.Add([]byte(`{"type":"summary"}`))
	f.Add([]byte(`{"type":"other"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	testWorkloads()
	var body atomic.Pointer[[]byte]
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/explore", func(w http.ResponseWriter, r *http.Request) {
		var req serve.ExploreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.ShardIndex == 0 {
			io.WriteString(w, fixed)
			return
		}
		w.Write(*body.Load())
	})
	var urls []string
	for range 2 {
		srv := httptest.NewServer(mux)
		f.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	// One attempt per shard and no ejection: every input meets the same
	// two-shard cluster.
	rt, err := New(Config{Replicas: urls, MaxAttempts: 1, Health: HealthConfig{Interval: time.Hour, EjectAfter: math.MaxInt}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	h := rt.Handler()
	fixedLines := strings.Split(strings.TrimSpace(fixed), "\n")
	sweep := `{"workload":"clusterfast-a","space":{"peak_gflops":{"values":[1000,2000]},"mem_bw_gbs":{"values":[100,600]}}}`

	f.Fuzz(func(t *testing.T, b []byte) {
		body.Store(&b)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(sweep)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		var chunks []dse.Chunk
		for _, line := range lines {
			var c dse.Chunk
			if err := json.Unmarshal([]byte(line), &c); err != nil {
				t.Fatalf("router line %.120q is not a chunk: %v", line, err)
			}
			chunks = append(chunks, c)
		}
		if len(chunks) < 2 || chunks[0].Type != "meta" || chunks[len(chunks)-1].Type != "summary" {
			t.Fatalf("stream does not run meta … summary:\n%s", rec.Body)
		}
		seen := make(map[int]bool)
		for i, c := range chunks[1 : len(chunks)-1] {
			line := lines[i+1]
			if c.Type != "point" || c.Point == nil {
				t.Fatalf("line %.120q between meta and summary is not a point", line)
			}
			idx := c.Point.Index
			if idx < 0 || idx >= gridSize || seen[idx] {
				t.Fatalf("point index %d out of the grid or repeated:\n%s", idx, rec.Body)
			}
			seen[idx] = true
			if idx%2 == 0 && line != fixedLines[1+idx/2] {
				t.Fatalf("shard 0's point %d forwarded as %.120q", idx, line)
			}
			if idx%2 == 1 && !slices.Contains(strings.Split(string(b), "\n"), line) {
				t.Fatalf("odd point %.120q is not a line of the shard's stream", line)
			}
		}
		sum := chunks[len(chunks)-1].Summary
		if sum == nil || sum.Evaluated < 2 || sum.Evaluated > gridSize || sum.Failed < 0 || sum.Failed > sum.Evaluated {
			t.Fatalf("summary counts out of range: %+v", sum)
		}
		for _, p := range sum.Front {
			if p.Index < 0 || p.Index >= gridSize {
				t.Fatalf("front index %d out of the grid", p.Index)
			}
		}
	})
}
