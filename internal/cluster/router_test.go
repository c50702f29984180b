package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/serve"
)

// stubReplica is a scripted nsserve stand-in: always ready, with a
// configurable characterize handler.
func stubReplica(t *testing.T, characterize http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/characterize", characterize)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// fastHealth keeps test ejection latencies in the millisecond range.
func fastHealth() HealthConfig {
	return HealthConfig{Interval: 10 * time.Millisecond, Timeout: time.Second, EjectAfter: 2, ReadmitAfter: 2}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// keyOwnedBy finds a valid characterize request whose canonical key the
// ring assigns to node (workloads × devices gives dozens of candidates).
func keyOwnedBy(t *testing.T, rt *Router, node string) (body, key string) {
	t.Helper()
	for _, wl := range core.WorkloadNames() {
		for _, dev := range hwsim.AllDevices() {
			_, k, err := serve.Canonicalize(serve.Request{Workload: wl, Device: dev.Name})
			if err != nil {
				t.Fatal(err)
			}
			if owner, _ := rt.ring.Get(k); owner == node {
				return fmt.Sprintf(`{"workload":%q,"device":%q}`, wl, dev.Name), k
			}
		}
	}
	t.Fatalf("no canonical key owned by %s", node)
	return "", ""
}

func routerPost(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/characterize", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRouterFailsOverToNextNode(t *testing.T) {
	// Replica A always answers 503; B answers with a marker payload.
	down := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	})
	up := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"served_by":"B"}`)
	})
	rt := newTestRouter(t, Config{
		Replicas:       []string{down.URL, up.URL},
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	body, _ := keyOwnedBy(t, rt, down.URL)
	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover request: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-NSRouter-Node"); got != up.URL {
		t.Fatalf("served by %s, want failover to %s", got, up.URL)
	}
	if !strings.Contains(rec.Body.String(), "served_by") {
		t.Fatalf("body %s lost in proxying", rec.Body)
	}
	if rt.retries.Value() == 0 {
		t.Fatal("failover did not count a retry")
	}
}

// TestRouterAllAttemptsFail: a replica that is ready (probes pass) but
// whose serving path breaks at the transport yields 502 — every node was
// tried, none answered.
func TestRouterAllAttemptsFail(t *testing.T) {
	broken := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // client sees an abrupt transport error
		}
	})
	rt := newTestRouter(t, Config{
		Replicas:       []string{broken.URL},
		Health:         HealthConfig{Interval: time.Hour, EjectAfter: 100}, // stays in the ring
		RetryBaseDelay: time.Millisecond,
	})
	rec := routerPost(rt.Handler(), `{"workload":"LNN"}`)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("broken transport: %d, want 502", rec.Code)
	}
}

// TestRouterEmptyRing: once every replica is ejected the router answers
// 503 (try again later) and reports itself not-ready.
func TestRouterEmptyRing(t *testing.T) {
	dead := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {})
	dead.Close() // connection refused from the start
	rt := newTestRouter(t, Config{
		Replicas:       []string{dead.URL},
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	deadline := time.Now().Add(5 * time.Second)
	for rt.ring.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica never ejected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec := routerPost(h, `{"workload":"LNN"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz with empty ring: %d, want 503", rr.Code)
	}
}

// TestRouterClientCancelAnswers499: a client that disconnects mid-route
// gets nginx's 499, not a 5xx — nobody reads the response, so it must
// not count against the availability error budget.
func TestRouterClientCancelAnswers499(t *testing.T) {
	inFlight := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		inFlight <- struct{}{}
		// Hold the attempt open until the router abandons it. The test
		// closes release (not the handler ctx): a handler that never reads
		// the POST body may not observe the disconnect, which would wedge
		// the stub server's Close in cleanup.
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	t.Cleanup(func() { close(release) }) // after stubReplica's: runs before srv.Close
	rt := newTestRouter(t, Config{
		Replicas:       []string{slow.URL},
		Health:         HealthConfig{Interval: time.Hour, EjectAfter: 100},
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
		strings.NewReader(`{"workload":"LNN"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	<-inFlight // the upstream attempt is running
	cancel()   // client walks away
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled route never returned")
	}
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("client-canceled route answered %d, want 499", rec.Code)
	}
	if good, total := rt.door.SLOFeed(); good.Value() != total.Value() {
		t.Fatalf("availability feed good/total = %d/%d after a client cancel, want equal", good.Value(), total.Value())
	}
}

func TestRouterPropagatesBadRequestWithoutForwarding(t *testing.T) {
	var hits atomic.Int32
	replica := stubReplica(t, func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	rt := newTestRouter(t, Config{Replicas: []string{replica.URL}, Health: fastHealth()})
	h := rt.Handler()
	for _, body := range []string{`{`, `{}`, `{"workload":"no-such"}`} {
		if rec := routerPost(h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: %d, want 400", body, rec.Code)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("invalid requests reached a replica %d times", n)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/characterize", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") == "" {
		t.Fatalf("GET characterize: %d Allow=%q, want 405 with Allow", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestRouterHedging: the key's owner stalls, the hedge fires to the next
// ring node after the latency-quantile delay, wins, and the stalled
// primary attempt is cancelled through its request context.
func TestRouterHedging(t *testing.T) {
	primaryCancelled := make(chan struct{}, 1)
	slow := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can detect the
		// client abort and cancel the request context.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			primaryCancelled <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	})
	fast := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"served_by":"hedge"}`)
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{slow.URL, fast.URL},
		Health:        fastHealth(),
		Hedge:         true,
		HedgeMinDelay: 5 * time.Millisecond,
	})
	h := rt.Handler()

	body, _ := keyOwnedBy(t, rt, slow.URL)
	start := time.Now()
	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-NSRouter-Node"); got != fast.URL {
		t.Fatalf("served by %s, want hedge winner %s", got, fast.URL)
	}
	if dur := time.Since(start); dur > 5*time.Second {
		t.Fatalf("hedged request took %v — primary's stall leaked into the response", dur)
	}
	if rt.hedgeFired.Value() != 1 || rt.hedgeWon.Value() != 1 {
		t.Fatalf("hedge counters fired=%d won=%d, want 1/1", rt.hedgeFired.Value(), rt.hedgeWon.Value())
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary attempt was never cancelled")
	}
}

// TestRouterHedgeNotFiredOnFastPrimary: a primary that answers inside
// the hedge delay never spawns duplicate work.
func TestRouterHedgeNotFiredOnFastPrimary(t *testing.T) {
	a := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	})
	b := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{a.URL, b.URL},
		Health:        fastHealth(),
		Hedge:         true,
		HedgeMinDelay: 2 * time.Second,
	})
	h := rt.Handler()
	for i := 0; i < 5; i++ {
		body, _ := keyOwnedBy(t, rt, a.URL)
		if rec := routerPost(h, body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	if fired := rt.hedgeFired.Value(); fired != 0 {
		t.Fatalf("hedges fired on fast primary: %d", fired)
	}
}

// TestRouterRequestIDPropagation: an inbound X-Request-ID reaches the
// replica (where it scopes flight-recorder entries) and is echoed back.
func TestRouterRequestIDPropagation(t *testing.T) {
	seen := make(chan string, 1)
	replica := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get("X-Request-ID")
		fmt.Fprint(w, `{}`)
	})
	rt := newTestRouter(t, Config{Replicas: []string{replica.URL}, Health: fastHealth()})
	h := rt.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/characterize", strings.NewReader(`{"workload":"LNN"}`))
	req.Header.Set("X-Request-ID", "trace-me-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("request: %d", rec.Code)
	}
	if got := <-seen; got != "trace-me-42" {
		t.Fatalf("replica saw X-Request-ID %q, want trace-me-42", got)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("response echoed X-Request-ID %q, want trace-me-42", got)
	}

	// Without an inbound ID the router mints one and still propagates it.
	rec = routerPost(h, `{"workload":"LNN"}`)
	minted := <-seen
	if minted == "" || rec.Header().Get("X-Request-ID") != minted {
		t.Fatalf("minted ID %q vs echoed %q", minted, rec.Header().Get("X-Request-ID"))
	}
}

// TestRouterAggregatedStats sums replica snapshots and carries per-node
// detail plus ejection state.
func TestRouterAggregatedStats(t *testing.T) {
	mkStats := func(requests, runs, runNanos, cacheSize int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(serve.Snapshot{
				Requests: requests, Runs: runs, RunNanos: runNanos, CacheSize: int(cacheSize),
			})
		}
	}
	mux1 := http.NewServeMux()
	mux1.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux1.HandleFunc("/v1/stats", mkStats(10, 4, 4e9, 3))
	r1 := httptest.NewServer(mux1)
	defer r1.Close()
	mux2 := http.NewServeMux()
	mux2.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux2.HandleFunc("/v1/stats", mkStats(6, 2, 2e9, 1))
	r2 := httptest.NewServer(mux2)
	defer r2.Close()

	rt := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}, Health: fastHealth()})
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var agg ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.LiveNodes != 2 || len(agg.Nodes) != 2 {
		t.Fatalf("live=%d nodes=%d, want 2/2", agg.LiveNodes, len(agg.Nodes))
	}
	if agg.Cluster.Requests != 16 || agg.Cluster.Runs != 6 || agg.Cluster.CacheSize != 4 {
		t.Fatalf("cluster sums %+v, want requests 16 / runs 6 / cache 4", agg.Cluster)
	}
	if agg.Cluster.AvgRunNanos != 1e9 {
		t.Fatalf("cluster avg = %d, want 1e9 (recomputed from sums)", agg.Cluster.AvgRunNanos)
	}
	for _, ns := range agg.Nodes {
		if ns.Err != "" {
			t.Fatalf("node %s errored: %s", ns.Node, ns.Err)
		}
	}
}

// TestRouterAggregatedStatsSumsEveryField: every numeric field of a
// replica snapshot reaches the cluster total, set by reflection so a
// field added to serve.Snapshot cannot be left out of the sum. Sums are
// exact; the two means are recomputed from the summed totals
// (AvgOccupancy weighted by each replica's batch count).
func TestRouterAggregatedStatsSumsEveryField(t *testing.T) {
	var snaps [2]serve.Snapshot
	typ := reflect.TypeOf(serve.Snapshot{})
	for n := range snaps {
		v := reflect.ValueOf(&snaps[n]).Elem()
		for i := 0; i < typ.NumField(); i++ {
			x := (i + 1) * (1 + 9*n) // node 1 holds 10x node 0
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(x))
			case reflect.Float64:
				f.SetFloat(float64(x) + 0.5)
			default:
				t.Fatalf("Snapshot.%s has kind %s: extend this test", typ.Field(i).Name, f.Kind())
			}
		}
	}
	var urls []string
	for _, snap := range snaps {
		snap := snap
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
		mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(snap) })
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt := newTestRouter(t, Config{Replicas: urls, Health: fastHealth()})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var agg ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatalf("stats: %d %s: %v", rec.Code, rec.Body, err)
	}
	a, b := snaps[0], snaps[1]
	got := reflect.ValueOf(agg.Cluster)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var want, have float64
		switch f := got.Field(i); f.Kind() {
		case reflect.Float64:
			have = f.Float()
		default:
			have = float64(f.Int())
		}
		switch name {
		case "AvgRunNanos":
			want = float64((a.RunNanos + b.RunNanos) / (a.Runs + b.Runs))
		case "AvgOccupancy":
			want = (a.AvgOccupancy*float64(a.BatchesRun) + b.AvgOccupancy*float64(b.BatchesRun)) /
				float64(a.BatchesRun+b.BatchesRun)
		default:
			av, bv := reflect.ValueOf(a).Field(i), reflect.ValueOf(b).Field(i)
			if av.Kind() == reflect.Float64 {
				want = av.Float() + bv.Float()
			} else {
				want = float64(av.Int() + bv.Int())
			}
		}
		if have == 0 || math.Abs(have-want) > 1e-9*math.Abs(want) {
			t.Errorf("cluster %s = %v, want %v", name, have, want)
		}
	}
}
