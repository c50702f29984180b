package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/tensor"
)

// clusterWorkload is a registry workload cheap enough to characterize
// many times in a test run.
type clusterWorkload struct{ name string }

func (c *clusterWorkload) Name() string     { return c.name }
func (c *clusterWorkload) Category() string { return "Test" }
func (c *clusterWorkload) Run(e *ops.Engine) error {
	g := tensor.NewRNG(7)
	e.Add(g.Normal(0, 1, 64), g.Normal(0, 1, 64))
	return nil
}

var registerClusterWorkloads sync.Once

func testWorkloads() []string {
	registerClusterWorkloads.Do(func() {
		core.RegisterWorkload("clusterfast-a", "Test", func() core.Workload { return &clusterWorkload{name: "clusterfast-a"} })
		core.RegisterWorkload("clusterfast-b", "Test", func() core.Workload { return &clusterWorkload{name: "clusterfast-b"} })
	})
	return []string{"clusterfast-a", "clusterfast-b"}
}

// replica is one real serve.Server behind a real listener.
type replica struct {
	srv  *serve.Server
	hs   *httptest.Server
	open bool
}

// startReplica serves a real serve.Server built from cfg on a loopback
// listener; both close when the test ends.
func startReplica(t *testing.T, cfg serve.Config) *replica {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &replica{srv: s, hs: httptest.NewServer(s.Handler()), open: true}
	t.Cleanup(rep.stop)
	return rep
}

// stop closes listener then server; safe to call twice.
func (rep *replica) stop() {
	if rep.open {
		rep.open = false
		rep.hs.Close()
	}
	rep.srv.Close()
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deterministicReport is the subset of the report schema that is a pure
// function of the canonical request: structure, operation counts, and
// data-dependent statistics — everything except measured wall-clock time
// and quantities derived from it. Cross-process report comparisons use
// this subset; bytes of *one* process's report are separately asserted
// stable via the cluster cache.
type deterministicReport struct {
	Name     string          `json:"name"`
	Category string          `json:"category"`
	Memory   json.RawMessage `json:"memory"`
	Roofline []struct {
		Name string  `json:"name"`
		AI   float64 `json:"arithmetic_intensity"`
	} `json:"roofline"`
	Dataflow struct {
		Events           int `json:"events"`
		Edges            int `json:"edges"`
		Depth            int `json:"depth"`
		MaxWidth         int `json:"max_width"`
		NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
		SymbolicToNeural int `json:"symbolic_to_neural_edges"`
	} `json:"dataflow"`
}

func mustDeterministic(t *testing.T, b []byte) deterministicReport {
	t.Helper()
	var out deterministicReport
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("report did not parse: %v\n%s", err, b)
	}
	return out
}

func getStats(t *testing.T, base string) serve.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestClusterEndToEndFailover is the acceptance test for the serving
// tier: 3 replicas behind a router, a fixed request set driven through
// it twice, one replica drained and killed mid-stream, and the same set
// driven again. It asserts
//
//   - responses through the router are byte-identical to the owning
//     replica's own response (the proxy is a pass-through),
//   - repeats of a key are byte-identical and cache-hit (per-key
//     single-owner routing keeps each replica's LRU authoritative),
//   - per-replica cache counters prove each canonical key landed on
//     exactly one live replica,
//   - reports match a single-node nsserve in every
//     request-deterministic field (same canonicalization, same
//     Report.MarshalJSON schema),
//   - after drain + ejection of one replica every request still answers
//     200, orphaned keys are recomputed by a surviving replica, and
//     unaffected keys keep their exact bytes.
func TestClusterEndToEndFailover(t *testing.T) {
	workloads := testWorkloads()
	devices := []string{hwsim.RTX2080Ti.Name, hwsim.XavierNX.Name, hwsim.JetsonTX2.Name}

	reps := []*replica{startReplica(t, serve.Config{}), startReplica(t, serve.Config{}), startReplica(t, serve.Config{})}
	urls := make([]string, len(reps))
	byURL := map[string]*replica{}
	for i, rep := range reps {
		urls[i] = rep.hs.URL
		byURL[rep.hs.URL] = rep
	}
	rt := newTestRouter(t, Config{
		Replicas:       urls,
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	type keyReq struct{ workload, device string }
	var keys []keyReq
	for _, wl := range workloads {
		for _, dev := range devices {
			keys = append(keys, keyReq{wl, dev})
		}
	}
	body := func(k keyReq) string {
		return fmt.Sprintf(`{"workload":%q,"device":%q}`, k.workload, k.device)
	}

	// Single-node reference for the deterministic report subset.
	ref := startReplica(t, serve.Config{})
	refBytes := map[keyReq][]byte{}
	for _, k := range keys {
		rec := routerPost(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ref.srv.Handler().ServeHTTP(w, r)
		}), body(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %v: %d %s", k, rec.Code, rec.Body)
		}
		refBytes[k] = append([]byte(nil), rec.Body.Bytes()...)
	}

	// Pass 1: every key once through the router.
	routed := map[keyReq][]byte{}
	owner := map[keyReq]string{}
	for _, k := range keys {
		rec := routerPost(h, body(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("pass 1 %v: %d %s", k, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-NSServe-Cache"); got != "miss" {
			t.Fatalf("pass 1 %v cache disposition %q, want miss", k, got)
		}
		routed[k] = append([]byte(nil), rec.Body.Bytes()...)
		owner[k] = rec.Header().Get("X-NSRouter-Node")
		if owner[k] == "" {
			t.Fatalf("pass 1 %v: no X-NSRouter-Node", k)
		}
	}

	// Pass 2: repeats are cache hits on the same owner, byte-identical.
	for _, k := range keys {
		rec := routerPost(h, body(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("pass 2 %v: %d %s", k, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-NSServe-Cache"); got != "hit" {
			t.Fatalf("pass 2 %v cache disposition %q, want hit (owner must be stable)", k, got)
		}
		if got := rec.Header().Get("X-NSRouter-Node"); got != owner[k] {
			t.Fatalf("pass 2 %v routed to %s, pass 1 went to %s", k, got, owner[k])
		}
		if !bytes.Equal(rec.Body.Bytes(), routed[k]) {
			t.Fatalf("pass 2 %v bytes differ from pass 1", k)
		}
	}

	// Equivalent spellings canonicalize identically and hit the same owner.
	{
		k := keys[0]
		rec := routerPost(h, fmt.Sprintf(`{"workload":%q,"device":%q}`,
			"CLUSTERFAST-A", "rtx 2080 ti"))
		if rec.Code != http.StatusOK || rec.Header().Get("X-NSServe-Cache") != "hit" {
			t.Fatalf("alt spelling: %d cache=%q, want 200 hit", rec.Code, rec.Header().Get("X-NSServe-Cache"))
		}
		if got := rec.Header().Get("X-NSRouter-Node"); got != owner[k] {
			t.Fatalf("alt spelling routed to %s, want %s", got, owner[k])
		}
		if !bytes.Equal(rec.Body.Bytes(), routed[k]) {
			t.Fatal("alt spelling returned different bytes")
		}
	}

	// The router is a byte-transparent proxy: the owner's direct answer is
	// the routed answer.
	for _, k := range keys {
		rec := routerPost(byURL[owner[k]].srv.Handler(), body(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("direct to owner %v: %d", k, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), routed[k]) {
			t.Fatalf("%v: routed bytes differ from the owner's direct response", k)
		}
	}

	// Per-replica cache counters: each canonical key missed exactly once
	// cluster-wide (one owner computed it) and every repeat hit. A key
	// that landed on two replicas would show as extra misses.
	var misses, hits int64
	for _, rep := range reps {
		snap := getStats(t, rep.hs.URL)
		misses += snap.CacheMiss
		hits += snap.CacheHits
	}
	if misses != int64(len(keys)) {
		t.Fatalf("cluster-wide cache misses = %d, want %d (each key computed on exactly one replica)", misses, len(keys))
	}
	// Pass 2 (len(keys)) + direct-to-owner (len(keys)) + alt spelling (1).
	if want := int64(2*len(keys) + 1); hits != want {
		t.Fatalf("cluster-wide cache hits = %d, want %d", hits, want)
	}

	// Same canonicalization and schema as single-node nsserve: every
	// request-deterministic field agrees with the reference server.
	for _, k := range keys {
		got, want := mustDeterministic(t, routed[k]), mustDeterministic(t, refBytes[k])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: routed report disagrees with single-node nsserve\nrouted: %+v\nsingle: %+v", k, got, want)
		}
	}

	// Aggregated stats see all three replicas.
	{
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var agg ClusterStats
		if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
			t.Fatal(err)
		}
		if agg.LiveNodes != 3 || len(agg.Nodes) != 3 {
			t.Fatalf("aggregated stats live=%d nodes=%d, want 3/3", agg.LiveNodes, len(agg.Nodes))
		}
		if agg.Cluster.CacheMiss != int64(len(keys)) {
			t.Fatalf("aggregated cluster misses = %d, want %d", agg.Cluster.CacheMiss, len(keys))
		}
	}

	// Drain + kill the replica owning keys[0]: readiness flips first (the
	// checker ejects it while its listener still answers), then the
	// listener closes — the production shutdown order.
	victimURL := owner[keys[0]]
	victim := byURL[victimURL]
	victim.srv.BeginDrain()
	await(t, "victim ejection", func() bool { return rt.ring.Len() == 2 })
	victim.stop()

	// Mid-stream failover: the full set again. Orphaned keys recompute on
	// a surviving replica; unaffected keys keep their exact bytes.
	for _, k := range keys {
		rec := routerPost(h, body(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-failover %v: %d %s", k, rec.Code, rec.Body)
		}
		newOwner := rec.Header().Get("X-NSRouter-Node")
		if newOwner == victimURL {
			t.Fatalf("post-failover %v routed to the dead replica", k)
		}
		if owner[k] == victimURL {
			// Orphaned key: recomputed elsewhere — deterministic fields
			// must still match the reference.
			got, want := mustDeterministic(t, rec.Body.Bytes()), mustDeterministic(t, refBytes[k])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-failover %v: recomputed report disagrees with single-node reference", k)
			}
		} else {
			if newOwner != owner[k] {
				t.Fatalf("post-failover %v moved from %s to %s — surviving keys must not move", k, owner[k], newOwner)
			}
			if !bytes.Equal(rec.Body.Bytes(), routed[k]) {
				t.Fatalf("post-failover %v bytes changed on a surviving owner", k)
			}
		}
	}

	// Aggregated stats now reflect the shrunken cluster.
	{
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var agg ClusterStats
		if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
			t.Fatal(err)
		}
		if agg.LiveNodes != 2 || len(agg.EjectedNodes) != 1 || agg.EjectedNodes[0] != victimURL {
			t.Fatalf("post-failover stats live=%d ejected=%v, want 2 live and [%s]", agg.LiveNodes, agg.EjectedNodes, victimURL)
		}
	}
}
