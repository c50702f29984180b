// Package cluster is the horizontal serving tier for nsserve: a
// stdlib-only router (cmd/nsrouter) that fronts N characterization
// replicas and shards requests across them by the same canonical
// workload\x00device key internal/serve caches under.
//
// Sharding by the cache key is the load-bearing decision: every
// canonical request has exactly one owning replica, so each replica's
// LRU and singleflight see all repetitions of the keys it owns, the
// cluster-wide cache capacity is the sum of the replicas' caches (no
// duplicated entries), and adding a replica moves only ~1/N of the key
// space (consistent hashing, Ring).
//
// Around the ring sit the availability mechanisms:
//
//   - active health checking (Checker): each replica's /readyz is probed
//     on an interval; consecutive failures eject it from the ring,
//     consecutive probation successes readmit it. The proxy path feeds
//     its own observed failures into the same streaks, so a dead replica
//     is typically ejected by live traffic between probe rounds.
//   - bounded failover retries: a failed attempt (transport error,
//     502/503/504, or 429) moves to the next distinct ring node after an
//     exponential backoff with jitter, up to MaxAttempts nodes.
//   - opt-in hedged requests: when the primary attempt has not answered
//     within the router's observed latency quantile, a second attempt
//     races it on the next ring node; the first acceptable response wins
//     and the loser's context is cancelled. Hedging trades duplicate
//     work for tail latency, so it is off by default.
//
// The router propagates X-Request-ID into the replicas (landing in their
// flight recorders), aggregates GET /v1/stats across live replicas, and
// publishes its own metrics registry at /metrics: per-node request and
// error counters, hedge fired/won counters, ring-size and ejected-node
// gauges, and routing latency histograms.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	mrand "math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/membership"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes a Router.
type Config struct {
	// Replicas are the nsserve base URLs fronted by the router (e.g.
	// "http://10.0.0.1:8080"), seeded as permanent cluster members;
	// trailing slashes are stripped. May be empty when Membership.Enabled
	// — replicas then join at runtime.
	Replicas []string
	// Membership parameterizes dynamic join/leave (POST /v1/cluster/join
	// heartbeats, TTL expiry). Disabled by default: the cluster is then
	// exactly the static Replicas list.
	Membership membership.Config
	// Replication is the cache fan-fill factor: a characterize miss is
	// pushed to this many distinct ring owners of the key, and reads pick
	// the least-loaded live owner (load-aware, by in-flight count ×
	// observed per-node latency). 0 or 1 selects single-owner sharding.
	Replication int
	// VNodes is the virtual-node count per replica; 0 selects
	// DefaultVirtualNodes.
	VNodes int
	// MaxAttempts bounds how many distinct replicas one request may try
	// (first attempt included); 0 selects 3. The ring yields at most one
	// attempt per live member, so small clusters are naturally capped.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry, doubling per
	// attempt with ±50% jitter; 0 selects 25ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff; 0 selects 1s.
	RetryMaxDelay time.Duration
	// Hedge enables tail-latency hedging on the proxied characterize
	// path. Off by default: a hedge duplicates work on a second replica.
	Hedge bool
	// HedgeQuantile is the attempt-latency quantile that arms the hedge
	// timer; 0 selects 0.9.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay — before any latency history
	// exists (or if the quantile collapses) hedges fire no earlier than
	// this; 0 selects 20ms.
	HedgeMinDelay time.Duration
	// UpstreamTimeout caps one proxied attempt; 0 selects 90s (above the
	// replicas' default 60s request timeout so their 429/504 answers win
	// the race against the router's own deadline).
	UpstreamTimeout time.Duration
	// Health parameterizes replica probing and ejection.
	Health HealthConfig
	// Metrics, when non-nil, is the registry the router publishes into.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives one line per routed request plus
	// ejection/readmission events. Nil disables logging.
	Logger *slog.Logger
	// RecorderSize is the router flight-recorder capacity in spans; 0
	// selects the trace package default, negative disables the recorder
	// (and with it the stitched /v1/trace?request_id= view's router rows).
	RecorderSize int
	// NodeName identifies the router process in stitched traces (its pid
	// label). Empty selects "nsrouter-<hostname>-<pid>".
	NodeName string
}

func (c *Config) defaults() {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 25 * time.Millisecond
	}
	if c.RetryMaxDelay == 0 {
		c.RetryMaxDelay = time.Second
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMinDelay == 0 {
		c.HedgeMinDelay = 20 * time.Millisecond
	}
	if c.UpstreamTimeout == 0 {
		c.UpstreamTimeout = 90 * time.Second
	}
	if c.RecorderSize == 0 {
		c.RecorderSize = trace.DefaultRecorderCapacity
	}
	if c.NodeName == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "host"
		}
		c.NodeName = fmt.Sprintf("nsrouter-%s-%d", host, os.Getpid())
	}
	c.Health.defaults()
}

// sloLatencyThreshold is the routed characterize_latency objective's
// cutoff: the replica's 250ms plus routing overhead.
const sloLatencyThreshold = 500 * time.Millisecond

// Router shards requests across nsserve replicas. Construct with New,
// expose via Handler, Close when done.
type Router struct {
	cfg    Config
	ring   *Ring
	health *Checker
	member *membership.Registry
	client *http.Client
	logger *slog.Logger

	// inflight tracks concurrent upstream attempts per node (node →
	// *atomic.Int64) — half of the load score replication reads rank by.
	inflight sync.Map

	reg          *metrics.Registry
	door         *frontdoor.Door     // request IDs, HTTP metrics, probes, /metrics, SLOs
	nodeReqs     *metrics.CounterVec // nsrouter_node_requests_total{node,code}
	nodeErrs     *metrics.CounterVec // nsrouter_node_errors_total{node}
	retries      *metrics.Counter
	hedgeFired   *metrics.Counter
	hedgeWon     *metrics.Counter
	hedgeOutcome *metrics.CounterVec   // nsrouter_hedge_total{outcome}
	attemptLat   *metrics.Histogram    // successful-attempt latency; arms the hedge timer
	nodeLat      *metrics.HistogramVec // nsrouter_node_attempt_seconds{node} (load scores)
	fillsTotal   *metrics.CounterVec   // nsrouter_replica_fills_total{outcome}

	// recorder is the router's flight recorder: proxy attempts, retry
	// backoffs, hedge races, and health transitions, as spans keyed by
	// request ID — the router's slice of a stitched cross-process trace.
	// nil when Config.RecorderSize is negative.
	recorder *trace.Recorder

	exploreSweeps *metrics.Counter // ns_explore_sweeps_total (router-level fan-outs)
	exploreShards *metrics.Counter // ns_explore_shards_total (shard streams completed)

	closeOnce sync.Once
}

// New builds a router over cfg.Replicas, starts its health checker, and
// returns it ready to serve.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 && !cfg.Membership.Enabled {
		return nil, errors.New("cluster: at least one replica required (or enable dynamic membership)")
	}
	cfg.defaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		client: &http.Client{}, // per-attempt deadlines come from contexts
		logger: cfg.Logger,
		reg:    reg,
		nodeReqs: reg.CounterVec("nsrouter_node_requests_total",
			"Upstream responses by replica and status code.", "node", "code"),
		nodeErrs: reg.CounterVec("nsrouter_node_errors_total",
			"Upstream transport errors by replica.", "node"),
		retries: reg.Counter("nsrouter_retries_total",
			"Failover attempts beyond each request's first."),
		hedgeFired: reg.Counter("nsrouter_hedges_fired_total",
			"Hedge attempts launched after the latency-quantile delay."),
		hedgeWon: reg.Counter("nsrouter_hedges_won_total",
			"Hedge attempts that answered before the primary."),
		hedgeOutcome: reg.CounterVec("nsrouter_hedge_total",
			"Resolved hedge races by outcome: primary won, hedge won, or both failed.",
			"outcome"),
		attemptLat: reg.Histogram("nsrouter_attempt_seconds",
			"Latency of successful upstream attempts (feeds the hedge delay).", metrics.LatencyBuckets()),
		nodeLat: reg.HistogramVec("nsrouter_node_attempt_seconds",
			"Latency of successful upstream attempts by replica (feeds load-aware routing).",
			metrics.LatencyBuckets(), "node"),
		fillsTotal: reg.CounterVec("nsrouter_replica_fills_total",
			"Replica cache fills fanned out for replicated keys, by outcome.", "outcome"),
		exploreSweeps: reg.Counter("ns_explore_sweeps_total",
			"Design-space sweeps fanned out across the cluster."),
		exploreShards: reg.Counter("ns_explore_shards_total",
			"Sweep shard streams completed by replicas."),
	}
	if cfg.RecorderSize > 0 {
		rt.recorder = trace.NewRecorder(cfg.RecorderSize)
	}
	nodes := make([]string, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		nodes[i] = strings.TrimRight(rep, "/")
		rt.ring.Add(nodes[i])
	}
	rt.health = NewChecker(cfg.Health, nodes, nil,
		func(node string) {
			rt.ring.Remove(node)
			// Health transitions live under the reserved "_health" ID:
			// GET /v1/trace?request_id=_health shows ejection history.
			rt.recordRouterSpan(healthTraceID, "health.eject("+node+")", time.Now())
			if rt.logger != nil {
				rt.logger.Warn("replica ejected", "node", node)
			}
		},
		func(node string) {
			// Record before the ring edit: whoever sees the node in the
			// ring can rely on its readmit span already being there.
			rt.recordRouterSpan(healthTraceID, "health.readmit("+node+")", time.Now())
			rt.ring.Add(node)
			if rt.logger != nil {
				rt.logger.Info("replica readmitted", "node", node)
			}
		})
	// Membership drives the ring through the checker: a joining replica is
	// registered on probation (ejected) and enters the ring only via the
	// checker's readmit path after ReadmitAfter probe successes — the same
	// gate a recovering replica passes — so a join can never route traffic
	// to an unproven node. A leave (explicit or TTL expiry) removes the
	// node from both checker and ring immediately.
	rt.member = membership.NewRegistry(cfg.Membership,
		func(node string) {
			if rt.health.AddNode(node, true) {
				rt.health.ProbeNow(node)
			}
			rt.recordRouterSpan(membershipTraceID, "membership.join("+node+")", time.Now())
			if rt.logger != nil {
				rt.logger.Info("replica joined (probation)", "node", node)
			}
		},
		func(node, reason string) {
			rt.health.RemoveNode(node)
			rt.ring.Remove(node)
			rt.recordRouterSpan(membershipTraceID, "membership.leave("+node+" "+reason+")", time.Now())
			if rt.logger != nil {
				rt.logger.Info("replica left", "node", node, "reason", reason)
			}
		})
	rt.member.SeedStatic(nodes)
	reg.GaugeFunc("nsrouter_ring_nodes", "Live replicas currently in the hash ring.",
		func() float64 { return float64(rt.ring.Len()) })
	reg.GaugeFunc("nsrouter_ejected_nodes", "Replicas ejected by the health checker.",
		func() float64 { return float64(len(rt.health.Ejected())) })
	reg.GaugeFunc("ns_cluster_members", "Current cluster membership (static + dynamic).",
		func() float64 { return float64(rt.member.Len()) })
	reg.CounterFunc("ns_cluster_joins_total", "Replicas that joined the cluster (new registrations, not heartbeats).",
		func() uint64 { joins, _ := rt.member.Counts(); return joins })
	reg.CounterFunc("ns_cluster_leaves_total", "Replicas that left the cluster (explicit leaves and TTL expiries).",
		func() uint64 { _, leaves := rt.member.Counts(); return leaves })
	rt.door = frontdoor.New(reg, cfg.Logger, frontdoor.Tier{
		MetricPrefix:     "nsrouter",
		IDPrefix:         "nsr",
		LogMessage:       "route",
		LatencyThreshold: sloLatencyThreshold,
		Ready:            func() bool { return rt.ring.Len() > 0 },
		NotReady:         "no live replicas",
	})
	rt.health.Start()
	if cfg.Membership.Enabled {
		rt.member.Start()
	}
	return rt, nil
}

// healthTraceID is the reserved flight-recorder ID health transitions are
// recorded under (they belong to no single request).
const healthTraceID = "_health"

// membershipTraceID is the reserved flight-recorder ID join/leave events
// are recorded under: GET /v1/trace?request_id=_membership replays the
// cluster's churn history.
const membershipTraceID = "_membership"

// recordRouterSpan records one routing-layer range (kind "router") from
// start to now on lane 0 under id. No-op with the recorder disabled.
func (rt *Router) recordRouterSpan(id, name string, start time.Time) {
	rt.recordRouterSpanLane(id, name, 0, start)
}

// recordRouterSpanLane is recordRouterSpan on an explicit worker lane —
// hedge attempts use lane 1 so the race renders as two parallel tracks.
func (rt *Router) recordRouterSpanLane(id, name string, lane int, start time.Time) {
	if rt.recorder == nil {
		return
	}
	rt.recorder.RecordSpan(id, trace.SpanAt(name, "router", lane, start, time.Now()))
}

// Close stops the health checker and the SLO sampler and drops idle
// upstream connections.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		rt.member.Close()
		rt.health.Close()
		rt.door.Close()
		rt.client.CloseIdleConnections()
	})
}

// Handler returns the router's route table, mirroring the replica API so
// clients point at the router unchanged. The front door serves /metrics
// (the router's own registry), /healthz, /readyz (503 while the ring is
// empty) and /v1/slo.
func (rt *Router) Handler() http.Handler {
	d := rt.door
	mux := d.Mux()
	d.Handle(mux, "/v1/characterize", rt.handleCharacterize)
	d.Handle(mux, "/v1/explore", rt.handleExplore)
	d.Handle(mux, "/v1/workloads", rt.handleWorkloads)
	d.Handle(mux, "/v1/trace", rt.handleTrace)
	d.Handle(mux, "/v1/stats", rt.handleStats)
	d.Handle(mux, "/v1/cluster/join", rt.handleClusterJoin)
	d.Handle(mux, "/v1/cluster/leave", rt.handleClusterLeave)
	d.Handle(mux, "/v1/cluster/members", rt.handleClusterMembers)
	return mux
}

// maxBodyBytes bounds request and upstream bodies. Reports are tens of
// kilobytes; a megabyte of headroom keeps the copy loops bounded without
// ever truncating a legitimate payload.
const maxBodyBytes = 1 << 20

// upstream is one replica response, fully buffered so it can be replayed
// to the client after the retry/hedge race settles.
type upstream struct {
	node   string
	code   int
	header http.Header
	body   []byte
}

// errNoReplicas distinguishes "every replica is ejected" (503, come back
// later) from "every attempt failed" (502).
var errNoReplicas = errors.New("no live replicas in the ring")

// retryable reports whether an upstream status may be retried on the
// next ring node: gateway-class statuses mean the replica cannot serve
// right now, and 429 means its queue is full — characterizations are
// deterministic, so the next replica can compute the same report.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attempt proxies one request to one replica and buffers the response.
// Outcomes feed the health checker: transport errors and gateway-class
// statuses extend the node's failure streak (429 does not — backpressure
// is load, not ill health), anything else resets it. One exception: an
// attempt reaped by its own router's cancellation (a lost hedge race, or
// the client hanging up) is the router's doing, not the replica's — it
// records a span tagged canceled and feeds no failure streak, so hedging
// can never eject a healthy node. Every attempt leaves a span in the
// flight recorder under id on the given worker lane.
func (rt *Router) attempt(ctx context.Context, node, method, path string, body []byte, id string, lane int) (*upstream, error) {
	inflight := rt.inflightCounter(node)
	inflight.Add(1)
	defer inflight.Add(-1)
	actx, cancel := context.WithTimeout(ctx, rt.cfg.UpstreamTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, node+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", id)
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() == context.Canceled {
			rt.recordRouterSpanLane(id, "proxy("+node+") canceled", lane, start)
			return nil, fmt.Errorf("%s: %w", node, err)
		}
		rt.nodeErrs.With(node).Inc()
		rt.health.ReportFailure(node)
		rt.recordRouterSpanLane(id, "proxy("+node+") error", lane, start)
		return nil, fmt.Errorf("%s: %w", node, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		if ctx.Err() == context.Canceled {
			rt.recordRouterSpanLane(id, "proxy("+node+") canceled", lane, start)
			return nil, fmt.Errorf("%s: reading body: %w", node, err)
		}
		rt.nodeErrs.With(node).Inc()
		rt.health.ReportFailure(node)
		rt.recordRouterSpanLane(id, "proxy("+node+") error", lane, start)
		return nil, fmt.Errorf("%s: reading body: %w", node, err)
	}
	rt.recordRouterSpanLane(id, fmt.Sprintf("proxy(%s) %d", node, resp.StatusCode), lane, start)
	rt.nodeReqs.With(node, strconv.Itoa(resp.StatusCode)).Inc()
	switch {
	case resp.StatusCode == http.StatusBadGateway,
		resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusGatewayTimeout:
		rt.health.ReportFailure(node)
	case resp.StatusCode == http.StatusTooManyRequests:
		// No health signal either way: a full queue is a healthy node.
	default:
		rt.health.ReportSuccess(node)
		rt.attemptLat.ObserveSeconds(time.Since(start).Nanoseconds())
		rt.nodeLat.With(node).ObserveSeconds(time.Since(start).Nanoseconds())
	}
	return &upstream{node: node, code: resp.StatusCode, header: resp.Header, body: b}, nil
}

// backoff returns the pre-retry delay for attempt i (1-based): base
// doubling per step, capped, with ±50% jitter so synchronized clients
// don't re-stampede a recovering replica.
func (rt *Router) backoff(i int) time.Duration {
	d := rt.cfg.RetryBaseDelay << (i - 1)
	if d > rt.cfg.RetryMaxDelay || d <= 0 {
		d = rt.cfg.RetryMaxDelay
	}
	half := int64(d) / 2
	return time.Duration(half + mrand.Int63n(half+1))
}

// hedgeSeedMinSamples is the attempt-latency sample count below which the
// quantile is too noisy to arm the hedge timer: with a near-empty
// histogram the quantile collapses to the lowest occupied bucket and
// every early request hedges at the floor, doubling load exactly when
// the router knows least. Until the histogram matures, the delay is
// seeded from the health prober's measured RTT instead.
const hedgeSeedMinSamples = 32

// hedgeProbeRTTFactor scales the probe-RTT seed: a readiness probe is a
// trivial handler, so a real characterization that hasn't answered within
// a few probe round-trips is not yet suspicious.
const hedgeProbeRTTFactor = 4

// hedgeDelay is how long the primary attempt may run before a hedge is
// launched: the configured quantile of observed successful-attempt
// latency once ≥hedgeSeedMinSamples exist, else a multiple of the
// slowest health-probe RTT — both floored at HedgeMinDelay (which also
// covers the probes-haven't-landed case).
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.cfg.HedgeMinDelay
	if rt.attemptLat.Count() < hedgeSeedMinSamples {
		if seed := hedgeProbeRTTFactor * rt.health.MaxProbeRTT(); seed > d {
			d = seed
		}
		return d
	}
	if q := rt.attemptLat.Quantile(rt.cfg.HedgeQuantile); !math.IsNaN(q) {
		if lat := time.Duration(q * float64(time.Second)); lat > d {
			d = lat
		}
	}
	return d
}

// inflightCounter returns node's concurrent-attempt counter, creating it
// on first use.
func (rt *Router) inflightCounter(node string) *atomic.Int64 {
	if c, ok := rt.inflight.Load(node); ok {
		return c.(*atomic.Int64)
	}
	c, _ := rt.inflight.LoadOrStore(node, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// loadScore ranks a replica for read placement: in-flight attempts
// weighted by observed mean attempt latency (a Little's-law queue-time
// estimate — two queued requests on a fast node beat one on a slow one).
// A replica with no traffic history falls back to its health-probe RTT,
// so a fresh joiner competes on its measured network proximity rather
// than an arbitrary prior.
func (rt *Router) loadScore(node string) float64 {
	mean := 0.05 // conservative default before any signal exists
	if h := rt.nodeLat.With(node); h.Count() > 0 {
		mean = h.Sum() / float64(h.Count())
	} else if rtt := rt.health.ProbeRTT(node); rtt > 0 {
		mean = rtt.Seconds()
	}
	return float64(rt.inflightCounter(node).Load()+1) * mean
}

// routeOrder returns the attempt order for key. With Replication 1 it is
// the ring's deterministic failover order. With Replication > 1 the first
// R distinct owners all hold the key's report warm (fills fan to them),
// so any of them can serve a read from cache — the order starts with the
// least-loaded owner and keeps the remaining owners (then non-owner
// failover nodes) behind it, truncated to MaxAttempts.
func (rt *Router) routeOrder(key string) []string {
	want := rt.cfg.MaxAttempts
	if rt.cfg.Replication > want {
		want = rt.cfg.Replication
	}
	nodes := rt.ring.GetN(key, want)
	if k := min(rt.cfg.Replication, len(nodes)); k > 1 {
		owners := nodes[:k]
		sort.SliceStable(owners, func(i, j int) bool {
			return rt.loadScore(owners[i]) < rt.loadScore(owners[j])
		})
	}
	if len(nodes) > rt.cfg.MaxAttempts {
		nodes = nodes[:rt.cfg.MaxAttempts]
	}
	return nodes
}

// forward routes one request along key's failover node list: primary
// first (hedged when enabled), then each next distinct ring node after a
// jittered exponential backoff. It returns the first acceptable response,
// or the last retryable one (so e.g. a terminal 429's Retry-After reaches
// the client), or an error when every attempt failed at the transport.
func (rt *Router) forward(ctx context.Context, key, method, path string, body []byte, id string, hedge bool) (*upstream, error) {
	nodes := rt.routeOrder(key)
	if len(nodes) == 0 {
		return nil, errNoReplicas
	}
	var last *upstream
	var lastErr error
	for i := 0; i < len(nodes); i++ {
		if i > 0 {
			rt.retries.Inc()
			backoffStart := time.Now()
			select {
			case <-time.After(rt.backoff(i)):
				rt.recordRouterSpan(id, fmt.Sprintf("retry.backoff(%d)", i), backoffStart)
			case <-ctx.Done():
				return last, ctx.Err()
			}
		}
		var up *upstream
		var err error
		if i == 0 && hedge && rt.cfg.Hedge && len(nodes) > 1 {
			up, err = rt.hedged(ctx, nodes[0], nodes[1], method, path, body, id)
		} else {
			up, err = rt.attempt(ctx, nodes[i], method, path, body, id, 0)
		}
		if err == nil && !retryable(up.code) {
			return up, nil
		}
		if up != nil {
			last = up
		}
		if err != nil {
			lastErr = err
			if rt.logger != nil {
				rt.logger.Warn("attempt failed", "node", nodes[i], "id", id, "err", err)
			}
		}
	}
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}

// hedged races the primary attempt against a delayed hedge on the next
// ring node. The first acceptable response wins and the shared context
// cancel reaps the loser's in-flight request; if the primary fails before
// the hedge timer fires, the failure returns immediately so forward's
// retry loop (with its backoff) takes over.
func (rt *Router) hedged(ctx context.Context, primary, backup, method, path string, body []byte, id string) (*upstream, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps whichever attempt lost
	type res struct {
		up    *upstream
		err   error
		hedge bool
	}
	ch := make(chan res, 2)
	launch := func(node string, hedge bool, lane int) {
		go func() {
			up, err := rt.attempt(ctx, node, method, path, body, id, lane)
			ch <- res{up, err, hedge}
		}()
	}
	launch(primary, false, 0)
	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	outstanding, launched := 1, false
	var fallback res
	var failed bool
	for {
		select {
		case <-timer.C:
			if !launched {
				launched = true
				outstanding++
				rt.hedgeFired.Inc()
				// Lane 1: the race renders as two parallel tracks in the
				// stitched timeline, the loser's span tagged canceled.
				launch(backup, true, 1)
			}
		case r := <-ch:
			outstanding--
			if r.err == nil && !retryable(r.up.code) {
				if launched {
					if r.hedge {
						rt.hedgeWon.Inc()
						rt.hedgeOutcome.With("hedge").Inc()
					} else {
						rt.hedgeOutcome.With("primary").Inc()
					}
				}
				return r.up, r.err
			}
			if !failed {
				failed, fallback = true, r
			}
			if !launched {
				// Primary failed fast: no point hedging a known-bad key
				// placement — fail over with backoff instead.
				return r.up, r.err
			}
			if outstanding == 0 {
				rt.hedgeOutcome.With("both_failed").Inc()
				return fallback.up, fallback.err
			}
		}
	}
}

// writeUpstream replays a buffered replica response to the client,
// preserving the payload bytes exactly and the headers that carry
// serving semantics (cache disposition, backpressure hints). The
// X-NSRouter-Node header names the replica that answered.
func writeUpstream(w http.ResponseWriter, up *upstream) {
	for _, h := range []string{"Content-Type", "X-NSServe-Cache", "Retry-After"} {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-NSRouter-Node", up.node)
	w.WriteHeader(up.code)
	w.Write(up.body)
}

// statusClientClosedRequest mirrors nginx's 499 (and the replicas'
// statusClientClosed): the client disconnected while the route was in
// flight, so nobody will read the response.
const statusClientClosedRequest = 499

// routeError maps a forwarding failure to a client status. A forward cut
// short by the *client's* departure is not a replica failure: it answers
// 499, keeping abandoned requests out of the availability error budget
// (a 5xx here would charge the server for a response nobody received).
// Both real error shapes are retryable from the client's side, so both
// carry Retry-After: an empty ring heals on the health checker's probe
// cadence, and a transport-level wipeout is worth one client backoff
// before retrying.
func (rt *Router) routeError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() == context.Canceled {
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	if errors.Is(err, errNoReplicas) {
		w.Header().Set("Retry-After", retryAfterSeconds(rt.cfg.Health.Interval))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Retry-After", retryAfterSeconds(rt.cfg.RetryMaxDelay))
	http.Error(w, "all replicas failed: "+err.Error(), http.StatusBadGateway)
}

// retryAfterSeconds renders d as a whole-second Retry-After value,
// rounding up so the client never comes back early.
func retryAfterSeconds(d time.Duration) string {
	s := int64(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// handleCharacterize is the routed hot path: canonicalize exactly as the
// replicas do, shard by the canonical cache key, forward with failover
// (and hedging when enabled). The canonical form is what gets forwarded,
// so replicas parse one spelling per key no matter what clients sent.
func (rt *Router) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	// Root span: the routed request's full extent — every per-hop span
	// (proxy attempts, backoffs) nests inside it on the stitched timeline.
	routeStart := time.Now()
	id := frontdoor.RequestID(r)
	defer func() { rt.recordRouterSpan(id, "route.characterize", routeStart) }()
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req serve.Request
	if err := json.Unmarshal(raw, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	canon, key, err := serve.Canonicalize(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := json.Marshal(canon)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	up, err := rt.forward(r.Context(), key, http.MethodPost, "/v1/characterize", body, frontdoor.RequestID(r), true)
	if err != nil {
		rt.routeError(w, r, err)
		return
	}
	// Replication: a freshly computed report (miss, or a joined flight's
	// copy) is pushed to the key's other ring owners so any of them can
	// serve the next read from cache. Fired asynchronously — the fill is
	// an optimization, never on the client's critical path.
	if rt.cfg.Replication > 1 && up.code == http.StatusOK {
		switch up.header.Get("X-NSServe-Cache") {
		case "miss", "join":
			rt.fanFills(key, canon, up, id)
		}
	}
	writeUpstream(w, up)
}

// fanFills pushes up's report bytes to key's other owners (the first
// Replication distinct ring nodes), skipping the replica that answered.
// The bytes are forwarded verbatim, so every owner's cache entry — and
// therefore every future cache hit — stays byte-identical.
func (rt *Router) fanFills(key string, canon serve.Request, up *upstream, id string) {
	for _, node := range rt.ring.GetN(key, rt.cfg.Replication) {
		if node == up.node {
			continue
		}
		go rt.fill(node, canon, up.body, id)
	}
}

// fill installs one already-computed report into node's cache via POST
// /v1/cache/fill, with its own deadline (the client's context is long
// gone by design).
func (rt *Router) fill(node string, canon serve.Request, report []byte, id string) {
	start := time.Now()
	body, err := json.Marshal(serve.FillRequest{Request: canon, Report: report})
	if err != nil {
		rt.fillsTotal.With("error").Inc()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.UpstreamTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/cache/fill", bytes.NewReader(body))
	if err != nil {
		rt.fillsTotal.With("error").Inc()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	outcome := "ok"
	resp, err := rt.client.Do(req)
	if err != nil {
		outcome = "error"
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			outcome = "rejected"
		}
	}
	rt.fillsTotal.With(outcome).Inc()
	// Lane 2 keeps fills visually apart from the proxy race in the
	// stitched timeline.
	rt.recordRouterSpanLane(id, "fill("+node+") "+outcome, 2, start)
}

// handleTrace routes the debug timeline endpoint by the same canonical
// key as characterize, so the replica that owns (and has cached) a key
// also serves its traces. With request_id= it instead assembles the
// stitched cross-process view of one past request (see trace.go).
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	if id := q.Get("request_id"); id != "" {
		rt.handleStitchedTrace(w, r, id)
		return
	}
	_, key, err := serve.Canonicalize(serve.Request{Workload: q.Get("workload"), Device: q.Get("device")})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	path := "/v1/trace"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	up, err := rt.forward(r.Context(), key, http.MethodGet, path, nil, frontdoor.RequestID(r), false)
	if err != nil {
		rt.routeError(w, r, err)
		return
	}
	writeUpstream(w, up)
}

// handleWorkloads serves the registry listing from any live replica (the
// listing is identical everywhere; a fixed routing key just keeps it on
// one node's workloadsOnce path).
func (rt *Router) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	up, err := rt.forward(r.Context(), "\x00workloads", http.MethodGet, "/v1/workloads", nil, frontdoor.RequestID(r), false)
	if err != nil {
		rt.routeError(w, r, err)
		return
	}
	writeUpstream(w, up)
}
