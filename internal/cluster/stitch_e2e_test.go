package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/trace"
)

// frontDoor is a scriptable listener placed in the router's replica
// list. Its serving behavior is assigned AFTER the router is built:
// the test reads the ring's actual failover order for one key and then
// decides which node stalls, which fails fast, and which forwards to a
// real serve.Server — instead of hunting for a key with a particular
// ring order, which the ring's lumpy successor arcs make flaky.
type frontDoor struct {
	hs      *httptest.Server
	handler atomic.Value // http.Handler for everything but /readyz
}

func newFrontDoor(t *testing.T) *frontDoor {
	t.Helper()
	f := &frontDoor{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if h, ok := f.handler.Load().(http.Handler); ok {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "unscripted front door", http.StatusServiceUnavailable)
	})
	f.hs = httptest.NewServer(mux)
	t.Cleanup(f.hs.Close)
	return f
}

// breakConnAfter scripts a transport failure: hold the connection for
// delay, then sever it mid-request.
func breakConnAfter(delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	})
}

// TestClusterStitchedTraceEndToEnd is the tracing acceptance test: one
// request whose failover order is [slow-fail, fast-fail, real replica]
// with hedging armed. The primary stalls past the hedge delay, the hedge
// races the second node and both fail, and the retry loop lands the
// request on a real replica. The stitched view of that single request
// must merge the router's spans (hedge lanes, backoffs, winning proxy
// hop) with the replica's serving spans and engine events into one
// Perfetto-valid Chrome trace — distinct pids per process, per-hop spans
// inside the router's root span.
func TestClusterStitchedTraceEndToEnd(t *testing.T) {
	testWorkloads()
	fronts := []*frontDoor{newFrontDoor(t), newFrontDoor(t), newFrontDoor(t), newFrontDoor(t)}
	byURL := map[string]*frontDoor{}
	urls := make([]string, len(fronts))
	for i, f := range fronts {
		urls[i] = f.hs.URL
		byURL[f.hs.URL] = f
	}

	rt := newTestRouter(t, Config{
		Replicas:       urls,
		Health:         HealthConfig{Interval: 50 * time.Millisecond, Timeout: time.Second, EjectAfter: 10, ReadmitAfter: 2},
		Hedge:          true,
		HedgeMinDelay:  15 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		NodeName:       "nsrouter-test",
		MaxAttempts:    4,
	})
	h := rt.Handler()

	// Script the failover order of one concrete key: the primary stalls
	// past the hedge delay before breaking the connection, the hedge
	// target breaks it immediately, and the remaining two nodes are real
	// replicas — so the request hedges, loses both lanes, and retries
	// onto a real replica.
	body := fmt.Sprintf(`{"workload":%q,"device":%q}`, "clusterfast-a", hwsim.RTX2080Ti.Name)
	_, key, err := serve.Canonicalize(serve.Request{Workload: "clusterfast-a", Device: hwsim.RTX2080Ti.Name})
	if err != nil {
		t.Fatal(err)
	}
	order := rt.ring.GetN(key, 4)
	if len(order) != 4 {
		t.Fatalf("failover order has %d nodes, want 4", len(order))
	}
	byURL[order[0]].handler.Store(breakConnAfter(80 * time.Millisecond))
	byURL[order[1]].handler.Store(breakConnAfter(0))
	byURL[order[2]].handler.Store(startReplica(t, serve.Config{RecorderSize: 256, NodeName: "replica-a"}).srv.Handler())
	byURL[order[3]].handler.Store(startReplica(t, serve.Config{RecorderSize: 256, NodeName: "replica-b"}).srv.Handler())

	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged+retried request: %d %s", rec.Code, rec.Body)
	}
	// The broken fronts have played their part; the stitched-trace
	// fan-out below queries all configured nodes, so let those two
	// answer an instant 404 instead of stalling every poll.
	byURL[order[0]].handler.Store(http.NotFoundHandler())
	byURL[order[1]].handler.Store(http.NotFoundHandler())
	id := rec.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID on routed response")
	}
	if servedBy := rec.Header().Get("X-NSRouter-Node"); servedBy != order[2] {
		t.Fatalf("served by %s, want the first real replica %s", servedBy, order[2])
	}

	// The request hedged (both the stalled primary and the hedge failed)
	// and then retried onto a real replica.
	if rt.hedgeFired.Value() != 1 {
		t.Fatalf("hedges fired = %d, want 1", rt.hedgeFired.Value())
	}
	if got := rt.hedgeOutcome.With("both_failed").Value(); got != 1 {
		t.Fatalf("hedge_total{outcome=both_failed} = %d, want 1", got)
	}
	if rt.retries.Value() == 0 {
		t.Fatal("no retry counted")
	}

	// The replica records its root serving span as the response unwinds,
	// so the trace can trail the response by a scheduler beat.
	var procs []trace.RequestTrace
	await(t, "replica slice in stitched trace", func() bool {
		rec := routerGet(h, "/v1/trace?request_id="+id+"&format=json")
		if rec.Code != http.StatusOK {
			return false
		}
		procs = nil
		if err := json.Unmarshal(rec.Body.Bytes(), &procs); err != nil {
			return false
		}
		for _, p := range procs {
			for _, s := range p.Spans {
				if s.Name == "serve.characterize" {
					return true
				}
			}
		}
		return false
	})

	if len(procs) < 2 {
		t.Fatalf("stitched trace has %d process slices, want router + replica", len(procs))
	}
	nodes := map[string]bool{}
	for _, p := range procs {
		nodes[p.Node] = true
	}
	if !nodes["nsrouter-test"] {
		t.Fatalf("process nodes = %v, missing the router", nodes)
	}
	if !nodes["replica-a"] && !nodes["replica-b"] {
		t.Fatalf("process nodes = %v, missing a replica", nodes)
	}

	// Chrome form: Perfetto-valid, with the two processes on distinct
	// pids and every router hop inside the router's root span.
	chrome := routerGet(h, "/v1/trace?request_id="+id)
	if chrome.Code != http.StatusOK {
		t.Fatalf("chrome trace: %d %s", chrome.Code, chrome.Body)
	}
	stats, err := trace.ValidateChrome(chrome.Body.Bytes())
	if err != nil {
		t.Fatalf("stitched trace invalid: %v", err)
	}
	if stats.Events == 0 {
		t.Fatal("stitched trace is empty")
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	var rootStart, rootEnd float64
	rootPID := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		pids[ev.PID] = true
		if ev.Name == "route.characterize" {
			rootPID, rootStart, rootEnd = ev.PID, ev.Ts, ev.Ts+ev.Dur
		}
	}
	if len(pids) < 2 {
		t.Fatalf("stitched trace spans %d pids, want >= 2 (router + replica)", len(pids))
	}
	if rootPID < 0 {
		t.Fatal("router root span route.characterize not in stitched trace")
	}
	hops := 0
	sawHedgeLane := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" || ev.PID != rootPID {
			continue
		}
		isHop := len(ev.Name) > 5 && ev.Name[:5] == "proxy"
		isBackoff := len(ev.Name) > 5 && ev.Name[:5] == "retry"
		if !isHop && !isBackoff {
			continue
		}
		hops++
		if ev.Ts < rootStart || ev.Ts+ev.Dur > rootEnd+1 {
			t.Fatalf("hop %q [%v,%v] escapes router root [%v,%v]",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, rootStart, rootEnd)
		}
		if isHop && ev.TID == 1 {
			sawHedgeLane = true
		}
	}
	if hops < 3 {
		t.Fatalf("router recorded %d hop/backoff spans, want >= 3 (hedge race + retries)", hops)
	}
	if !sawHedgeLane {
		t.Fatal("no proxy span on the hedge lane (tid 1)")
	}
}

// routerGet issues one GET through the router handler.
// TestStitchedTraceRejectsUnplaceableSlice: when a replica's slice holds
// an entry the stitched axis cannot place (here a span that ends before
// it starts), the router answers an error status with the writer's
// reason instead of an empty 200.
func TestStitchedTraceRejectsUnplaceableSlice(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"request_id":"x","node":"a","spans":[{"name":"s","kind":"stage","start_unix_ns":2000,"dur_ns":-1000}]}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	rt := newTestRouter(t, Config{Replicas: []string{srv.URL}, Health: fastHealth()})
	rec := routerGet(rt.Handler(), "/v1/trace?request_id=x")
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "cannot stitch") {
		t.Fatalf("status %d, body %q; want 502 with the writer's reason", rec.Code, rec.Body.String())
	}
}

func routerGet(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHedgeLoserCanceledNotEjected: when the hedge wins, the reaped
// primary records a span tagged canceled and feeds no failure streak —
// hedging must never eject a healthy-but-slow node.
func TestHedgeLoserCanceledNotEjected(t *testing.T) {
	slow := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read detects the
		// client abort and cancels the request context.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	fast := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{slow.URL, fast.URL},
		Health:        fastHealth(),
		Hedge:         true,
		HedgeMinDelay: 5 * time.Millisecond,
	})
	h := rt.Handler()

	body, _ := keyOwnedBy(t, rt, slow.URL)
	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: %d %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Request-ID")
	if got := rt.hedgeOutcome.With("hedge").Value(); got != 1 {
		t.Fatalf("hedge_total{outcome=hedge} = %d, want 1", got)
	}

	// The loser's cancellation lands asynchronously after the winner's
	// response is already on the wire.
	await(t, "canceled loser span", func() bool {
		for _, s := range rt.recorder.SpansByID(id) {
			if s.Span.Name == "proxy("+slow.URL+") canceled" {
				return true
			}
		}
		return false
	})
	if got := rt.nodeErrs.With(slow.URL).Value(); got != 0 {
		t.Fatalf("canceled loser counted %d node errors, want 0", got)
	}
	// A few health-check intervals later the slow node is still in the
	// ring: the cancel fed no failure streak.
	time.Sleep(50 * time.Millisecond)
	if rt.ring.Len() != 2 {
		t.Fatalf("ring has %d nodes after hedge race, want 2 (loser must not be ejected)", rt.ring.Len())
	}
}

// TestHedgeOutcomePrimaryWin: a primary that answers after the hedge
// launched but before the hedge finishes counts outcome=primary.
func TestHedgeOutcomePrimaryWin(t *testing.T) {
	primary := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		fmt.Fprint(w, `{"ok":true}`)
	})
	backup := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{primary.URL, backup.URL},
		Health:        fastHealth(),
		Hedge:         true,
		HedgeMinDelay: 5 * time.Millisecond,
	})
	h := rt.Handler()

	body, _ := keyOwnedBy(t, rt, primary.URL)
	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("request: %d %s", rec.Code, rec.Body)
	}
	if rt.hedgeFired.Value() != 1 {
		t.Fatalf("hedges fired = %d, want 1", rt.hedgeFired.Value())
	}
	if got := rt.hedgeOutcome.With("primary").Value(); got != 1 {
		t.Fatalf("hedge_total{outcome=primary} = %d, want 1", got)
	}
	if rt.hedgeWon.Value() != 0 {
		t.Fatalf("hedge wins = %d, want 0", rt.hedgeWon.Value())
	}
}
