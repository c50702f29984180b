package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/neurosym/nsbench/internal/serve"
)

// FuzzNodeStats feeds arbitrary bytes to the router as one replica's
// /v1/stats answer, after a second replica with a fixed snapshot, and
// reads the aggregate back through GET /v1/stats. The aggregate must
// always encode as a ClusterStats. A body the router accepts must reach
// the cluster total exactly as Snapshot.Add sums it; a body that is not a
// Snapshot's JSON must leave an error row for its node and add nothing.
func FuzzNodeStats(f *testing.F) {
	fixed := serve.Snapshot{Requests: 9, CacheHits: 5, Runs: 4, RunNanos: 400, AvgRunNanos: 100,
		CacheSize: 2, BatchesRun: 3, AvgOccupancy: 2, CacheFills: 1}
	valid, err := json.Marshal(fixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"requests":1,"runs":2,"run_nanos_total":7,"batches_run":5,"avg_occupancy":1.5}`))
	f.Add([]byte(`{"batches_run":2,"avg_occupancy":1.7976931348623157e308}`))
	f.Add([]byte(`{"batches_run":9223372036854775807,"runs":9223372036854775807,"run_nanos_total":9223372036854775807}`))
	f.Add([]byte(`{"batches_run":-2,"avg_occupancy":1e308}`))
	f.Add([]byte(`{"runs":-1}`))
	f.Add([]byte(`{"avg_occupancy":-0}`))
	f.Add([]byte(`{"cache_size":1e400}`))
	f.Add([]byte(`{"requests":"7"}`))
	f.Add([]byte(`{"requests":1.5}`))
	f.Add([]byte(`{"unknown":true,"requests":3}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"requests":1`))
	f.Add([]byte(``))

	// Two stub replicas; the one whose URL sorts first answers with the
	// fixed snapshot, so the router always adds the fuzzed snapshot to a
	// running total, never to zero.
	var body atomic.Pointer[[]byte]
	var fixedNode, fuzzed string
	stats := func(w http.ResponseWriter, r *http.Request) {
		if "http://"+r.Host == fixedNode {
			w.Write(valid)
			return
		}
		w.Write(*body.Load())
	}
	var urls []string
	for range 2 {
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
		mux.HandleFunc("/v1/stats", stats)
		srv := httptest.NewServer(mux)
		f.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	slices.Sort(urls)
	fixedNode, fuzzed = urls[0], urls[1]
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	h := rt.Handler()

	f.Fuzz(func(t *testing.T, b []byte) {
		body.Store(&b)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats: %d %s", rec.Code, rec.Body)
		}
		var agg ClusterStats
		if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
			t.Fatalf("aggregate does not re-decode: %v\n%s", err, rec.Body)
		}
		if len(agg.Nodes) != 2 {
			t.Fatalf("%d node rows, want 2", len(agg.Nodes))
		}
		snap, decodeErr := decodeSnapshot(b)
		if decodeErr == nil && json.Unmarshal(b, new(serve.Snapshot)) != nil {
			t.Fatalf("accepted a body that is not a Snapshot's JSON: %q", b)
		}
		var want serve.Snapshot
		for _, ns := range agg.Nodes {
			switch ns.Node {
			case fixedNode:
				if ns.Err != "" || ns.Stats != fixed {
					t.Fatalf("fixed node row %+v, want %+v", ns, fixed)
				}
				want.Add(fixed)
			case fuzzed:
				if (ns.Err == "") != (decodeErr == nil) {
					t.Fatalf("fuzzed node error %q, decode error %v", ns.Err, decodeErr)
				}
				if ns.Stats != snap {
					t.Fatalf("fuzzed node stats %+v, want %+v", ns.Stats, snap)
				}
				if decodeErr == nil {
					want.Add(snap)
				}
			default:
				t.Fatalf("unknown node row %q", ns.Node)
			}
		}
		if !reflect.DeepEqual(agg.Cluster, want) {
			t.Fatalf("cluster total %+v, want %+v", agg.Cluster, want)
		}
	})
}
