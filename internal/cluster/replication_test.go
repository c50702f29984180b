package cluster

import (
	"net/http"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/serve"
)

// TestClusterReplicatedWarmRead is the replication acceptance test: with
// -replication 2 a key's report is fan-filled to both ring owners, so
// killing the replica that computed it leaves the next read a warm cache
// hit on the survivor — no recharacterization.
func TestClusterReplicatedWarmRead(t *testing.T) {
	testWorkloads()
	a := startReplica(t, serve.Config{})
	b := startReplica(t, serve.Config{})

	rt := newTestRouter(t, Config{
		Replicas:       []string{a.hs.URL, b.hs.URL},
		Replication:    2,
		Health:         fastHealth(),
		RetryBaseDelay: time.Millisecond,
	})
	h := rt.Handler()

	// Any key: with two nodes both are owners under replication 2.
	body, _ := keyOwnedBy(t, rt, a.hs.URL)

	first := routerPost(h, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first read: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-NSServe-Cache"); got != "miss" {
		t.Fatalf("first read disposition %q, want miss", got)
	}
	server := first.Header().Get("X-NSRouter-Node")
	reps := map[string]*replica{a.hs.URL: a, b.hs.URL: b}
	other := a
	if server == a.hs.URL {
		other = b
	}
	killed, survivor := reps[server], other

	// The async fan-fill lands the same bytes in the other owner's cache.
	await(t, "fill on the sibling owner", func() bool {
		return getStats(t, survivor.hs.URL).CacheFills == 1
	})
	if fills := getStats(t, survivor.hs.URL); fills.Runs != 0 {
		t.Fatalf("survivor ran %d characterizations, want 0 (fill only)", fills.Runs)
	}

	// Kill the replica that computed the report; wait for ejection.
	killed.stop()
	await(t, "killed owner ejected", func() bool { return !rt.ring.Contains(server) })

	// The next read is served warm by the survivor: a cache hit with the
	// exact bytes of the original response, and still zero runs there.
	second := routerPost(h, body)
	if second.Code != http.StatusOK {
		t.Fatalf("read after kill: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-NSRouter-Node"); got != survivor.hs.URL {
		t.Fatalf("served by %s, want survivor %s", got, survivor.hs.URL)
	}
	if got := second.Header().Get("X-NSServe-Cache"); got != "hit" {
		t.Fatalf("read after kill disposition %q, want hit (no recharacterization)", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("replicated read changed bytes:\nfirst:  %s\nsecond: %s", first.Body, second.Body)
	}
	snap := getStats(t, survivor.hs.URL)
	if snap.Runs != 0 || snap.CacheHits != 1 {
		t.Fatalf("survivor stats %+v, want 0 runs / 1 cache hit", snap)
	}
}

// TestRouteOrderPrefersLeastLoadedOwner: with replication > 1 the first
// node in the attempt order is the owner with the lowest in-flight ×
// latency score, while single-owner routing keeps the ring's order.
func TestRouteOrderPrefersLeastLoadedOwner(t *testing.T) {
	a := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {})
	b := stubReplica(t, func(w http.ResponseWriter, r *http.Request) {})
	rt := newTestRouter(t, Config{
		Replicas:    []string{a.URL, b.URL},
		Replication: 2,
		Health:      HealthConfig{Interval: time.Hour}, // no probe noise
	})
	ringOrder := rt.ring.GetN("some-key", 2)
	primary, secondary := ringOrder[0], ringOrder[1]

	// Pin both load scores to the same observed latency: with equal
	// scores the stable sort preserves the ring's deterministic order.
	rt.nodeLat.With(primary).ObserveSeconds((10 * time.Millisecond).Nanoseconds())
	rt.nodeLat.With(secondary).ObserveSeconds((10 * time.Millisecond).Nanoseconds())
	if got := rt.routeOrder("some-key"); got[0] != primary {
		t.Fatalf("unloaded order %v, want ring primary %s first", got, primary)
	}

	// Load the ring primary: in-flight requests push its score up, so the
	// secondary owner becomes the read target.
	cnt := rt.inflightCounter(primary)
	cnt.Add(5)
	if got := rt.routeOrder("some-key"); got[0] != secondary || got[1] != primary {
		t.Fatalf("loaded order %v, want least-loaded %s first", got, secondary)
	}
	cnt.Add(-5)

	// Observed latency alone also tips the scale: a slow primary loses to
	// a fast secondary even with equal in-flight counts.
	rt.nodeLat.With(primary).ObserveSeconds((500 * time.Millisecond).Nanoseconds())
	rt.nodeLat.With(secondary).ObserveSeconds((5 * time.Millisecond).Nanoseconds())
	if got := rt.routeOrder("some-key"); got[0] != secondary {
		t.Fatalf("latency-weighted order %v, want fast owner %s first", got, secondary)
	}
}
