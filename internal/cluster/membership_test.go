package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/membership"
	"github.com/neurosym/nsbench/internal/serve"
)

// postCluster sends one join/leave announcement to the router handler.
func postCluster(h http.Handler, path, nodeURL string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"url":"`+nodeURL+`"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// recorderHasSpan reports whether the router recorded a span with name
// under the reserved trace id.
func recorderHasSpan(rt *Router, id, name string) bool {
	for _, rs := range rt.recorder.SpansByID(id) {
		if rs.Span.Name == name {
			return true
		}
	}
	return false
}

// TestClusterDynamicJoin is the membership end-to-end: a replica joins a
// running router over HTTP, is admitted to the ring only through the
// health checker's probation/readmit gate, serves traffic, and leaves
// cleanly.
func TestClusterDynamicJoin(t *testing.T) {
	testWorkloads()
	static := startReplica(t, serve.Config{})
	joiner := startReplica(t, serve.Config{})

	rt := newTestRouter(t, Config{
		Replicas:       []string{static.hs.URL},
		Membership:     membership.Config{Enabled: true},
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	if rec := postCluster(h, "/v1/cluster/join", joiner.hs.URL); rec.Code != http.StatusOK {
		t.Fatalf("join: %d %s", rec.Code, rec.Body)
	}
	if !rt.member.Contains(joiner.hs.URL) {
		t.Fatal("joiner not registered as a member")
	}
	await(t, "joiner admitted to the ring", func() bool { return rt.ring.Contains(joiner.hs.URL) })

	// Admission must have gone through the checker's readmit path, not a
	// direct ring edit: both the membership join and the health readmit
	// left spans under their reserved trace IDs.
	if !recorderHasSpan(rt, membershipTraceID, "membership.join("+joiner.hs.URL+")") {
		t.Fatal("no membership.join span recorded")
	}
	if !recorderHasSpan(rt, healthTraceID, "health.readmit("+joiner.hs.URL+")") {
		t.Fatal("no health.readmit span — join bypassed the probation gate")
	}

	// The joiner owns keys now; a request for one routes to it.
	body, _ := keyOwnedBy(t, rt, joiner.hs.URL)
	rec := routerPost(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("characterize via joiner: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-NSRouter-Node"); got != joiner.hs.URL {
		t.Fatalf("served by %s, want joiner %s", got, joiner.hs.URL)
	}

	// Explicit leave withdraws it from checker and ring immediately.
	if rec := postCluster(h, "/v1/cluster/leave", joiner.hs.URL); rec.Code != http.StatusOK {
		t.Fatalf("leave: %d %s", rec.Code, rec.Body)
	}
	if rt.ring.Contains(joiner.hs.URL) || rt.member.Contains(joiner.hs.URL) {
		t.Fatal("joiner still present after leave")
	}
	if joins, leaves := rt.member.Counts(); joins != 1 || leaves != 1 {
		t.Fatalf("counts = %d/%d, want 1 join / 1 leave", joins, leaves)
	}
	if !recorderHasSpan(rt, membershipTraceID, "membership.leave("+joiner.hs.URL+" leave)") {
		t.Fatal("no membership.leave span recorded")
	}

	// The metrics surface carries the counters and the gauge.
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"ns_cluster_members", "ns_cluster_joins_total 1", "ns_cluster_leaves_total 1"} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestClusterJoinTTLExpiry: a joined replica that stops heartbeating is
// swept out of membership, checker, and ring.
func TestClusterJoinTTLExpiry(t *testing.T) {
	testWorkloads()
	static := startReplica(t, serve.Config{})
	joiner := startReplica(t, serve.Config{})

	rt := newTestRouter(t, Config{
		Replicas:   []string{static.hs.URL},
		Membership: membership.Config{Enabled: true, TTL: 50 * time.Millisecond, SweepInterval: 10 * time.Millisecond},
		Health:     fastHealth(),
	})
	h := rt.Handler()
	postCluster(h, "/v1/cluster/join", joiner.hs.URL)
	await(t, "joiner admitted", func() bool { return rt.ring.Contains(joiner.hs.URL) })

	// No heartbeats: the TTL sweeper expires it.
	await(t, "joiner expired", func() bool { return !rt.ring.Contains(joiner.hs.URL) })
	if rt.member.Contains(joiner.hs.URL) {
		t.Fatal("expired joiner still a member")
	}
	dep := rt.member.Departed()
	if len(dep) != 1 || dep[0].Reason != membership.ReasonExpired {
		t.Fatalf("departed ledger = %+v, want one expiry", dep)
	}
	// The static replica is untouched by the sweeper.
	if !rt.ring.Contains(static.hs.URL) {
		t.Fatal("static replica lost during expiry sweep")
	}
}

// TestClusterMembershipDisabled: with static configuration the cluster
// endpoints are read-only — join/leave answer 403 and mutate nothing.
func TestClusterMembershipDisabled(t *testing.T) {
	up := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {})
	rt := newTestRouter(t, Config{Replicas: []string{up.URL}, Health: fastHealth()})
	h := rt.Handler()

	if rec := postCluster(h, "/v1/cluster/join", "http://sneaky:1"); rec.Code != http.StatusForbidden {
		t.Fatalf("join with membership disabled: %d, want 403", rec.Code)
	}
	if rec := postCluster(h, "/v1/cluster/leave", up.URL); rec.Code != http.StatusForbidden {
		t.Fatalf("leave with membership disabled: %d, want 403", rec.Code)
	}
	if !rt.ring.Contains(up.URL) || rt.member.Len() != 1 {
		t.Fatal("static membership mutated through disabled endpoints")
	}
	// The members listing stays readable for operators.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/members", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"enabled":false`) {
		t.Fatalf("members listing: %d %s", rec.Code, rec.Body)
	}
}

// TestStatsToleratesMidFanoutDeparture: a replica that leaves the cluster
// between the stats fan-out and its answer is reported under
// departed_nodes, not as an error row.
func TestStatsToleratesMidFanoutDeparture(t *testing.T) {
	testWorkloads()
	static := startReplica(t, serve.Config{})

	var rt *Router
	// The leaver's stats endpoint withdraws the node and then breaks the
	// connection — deterministically reproducing "left mid-fan-out".
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	leaver := httptest.NewServer(mux)
	defer leaver.Close()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		rt.member.Leave(leaver.URL, membership.ReasonLeave)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	})

	rt = newTestRouter(t, Config{
		Replicas:       []string{static.hs.URL},
		Membership:     membership.Config{Enabled: true},
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()
	postCluster(h, "/v1/cluster/join", leaver.URL)
	await(t, "leaver admitted", func() bool { return rt.ring.Contains(leaver.URL) })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"departed_nodes":["`+leaver.URL+`"]`) {
		t.Fatalf("mid-fan-out leaver not under departed_nodes:\n%s", body)
	}
	if strings.Contains(body, `"error"`) {
		t.Fatalf("mid-fan-out leaver still surfaced as an error row:\n%s", body)
	}
	if !strings.Contains(body, `"node":"`+static.hs.URL+`"`) {
		t.Fatalf("surviving replica missing from stats rows:\n%s", body)
	}
}
