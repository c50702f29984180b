// Package serve turns the one-shot characterization pipeline into a
// long-running HTTP/JSON service. It exposes the workload registry
// (/v1/workloads), characterization (/v1/characterize) and operational
// counters (/v1/stats), and layers three serving concerns over
// core.Characterize:
//
//   - an LRU report cache keyed by the canonicalized request — the
//     backend determinism contract makes reports a pure function of the
//     request, so cache hits are byte-identical to misses;
//   - singleflight deduplication — N concurrent identical requests run
//     one characterization and share its bytes;
//   - a bounded admission queue with backpressure — when the queue is
//     full the server answers 429 + Retry-After instead of piling up
//     goroutines, and queued work whose waiters have all left is dropped
//     before it wastes a worker.
//
// Every characterization borrows an engine from one shared ops.Pool, so a
// server process runs one backend worker pool for its whole lifetime and
// Close tears it down deterministically.
//
// The server is fully observable: every serving counter, per-endpoint
// request/latency histogram, cache/queue/pool gauge, per-operator timing,
// and Go runtime sample lives in one metrics.Registry, scraped at
// /metrics (Prometheus text format). /v1/stats remains the legacy JSON
// view over the same instruments. /healthz answers liveness probes
// (process up) and /readyz answers readiness probes (not draining) —
// the split lets a draining replica be ejected from a load balancer or
// the cluster router (internal/cluster) before its listener closes.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes a Server. The zero value serves on a serial
// backend with production-ish defaults.
type Config struct {
	// Engine selects the execution backend shared by every
	// characterization run ("serial" default, or "parallel").
	Engine ops.Config
	// CacheSize is the LRU capacity in reports; 0 selects 128, negative
	// disables caching.
	CacheSize int
	// QueueDepth bounds the admission queue; 0 selects 64. A full queue
	// rejects new work with 429.
	QueueDepth int
	// Concurrency is the number of characterization workers; 0 selects 2.
	Concurrency int
	// RequestTimeout caps how long a request waits for its report
	// (queueing included); 0 selects 60s.
	RequestTimeout time.Duration
	// Metrics, when non-nil, is the registry the server publishes into;
	// nil gives the server a private registry. Share one registry when a
	// process embeds several instrumented components behind one /metrics.
	Metrics *metrics.Registry
	// RecorderSize is the flight-recorder capacity in operator events;
	// 0 selects 512, negative disables the recorder (and /debug/trace).
	RecorderSize int
	// Logger, when non-nil, receives one structured line per HTTP request
	// (method, path, status, duration, request ID). Nil disables logging.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiling endpoints are opt-in on shared deployments.
	Pprof bool
	// BatchWindow, when positive, enables request coalescing: cache-missing
	// requests for the same workload arriving within the window execute as
	// one pass with per-item reports (and cache fills), a single batched
	// engine pass when the workload has a native RunBatch.
	// Zero disables coalescing — the library default; cmd/nsserve enables
	// it with a 2ms window.
	BatchWindow time.Duration
	// BatchMax caps how many requests coalesce into one batch; a full
	// group flushes immediately instead of waiting out the window. 0
	// selects 8. Only meaningful with BatchWindow > 0.
	BatchMax int
	// ExploreMaxPoints caps the grid size a single /v1/explore sweep may
	// request; 0 selects 65536. Larger grids are rejected with 400 — split
	// them across shards (the cluster router does this automatically).
	ExploreMaxPoints int
	// ExploreConcurrency bounds concurrently streaming sweeps; 0 selects 2.
	// At the limit new sweeps answer 429 + Retry-After.
	ExploreConcurrency int
	// NodeName identifies this replica in cross-process trace stitching
	// (the pid label of its slice of a stitched timeline). Empty selects
	// "<hostname>-<pid>". A routing tier typically overrides it with the
	// replica's URL when it assembles the stitched view.
	NodeName string
}

func (c *Config) defaults() {
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Concurrency == 0 {
		c.Concurrency = 2
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.RecorderSize == 0 {
		c.RecorderSize = trace.DefaultRecorderCapacity
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.ExploreMaxPoints == 0 {
		c.ExploreMaxPoints = 1 << 16
	}
	if c.ExploreConcurrency == 0 {
		c.ExploreConcurrency = 2
	}
	if c.NodeName == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "nsserve"
		}
		c.NodeName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
}

// sloLatencyThreshold is the characterize_latency objective's cutoff on a
// replica.
const sloLatencyThreshold = 250 * time.Millisecond

// Request selects one characterization: a registered workload and the
// reference device for roofline/projection analysis.
type Request struct {
	Workload string `json:"workload"`
	// Device is the hwsim reference device name; empty selects the
	// paper's RTX 2080 Ti.
	Device string `json:"device,omitempty"`
}

// Canonicalize validates req and returns its normalized form plus the
// cache key. Two requests that mean the same characterization always
// canonicalize to the same key (whitespace trimmed, workload name
// case-folded against the registry, device resolved to its model name),
// which is what makes the cache and singleflight effective. The routing
// tier (internal/cluster) hashes the same key, so every canonical request
// has one owning replica and cluster cache capacity scales linearly with
// replica count.
func Canonicalize(req Request) (Request, string, error) {
	name := strings.TrimSpace(req.Workload)
	if name == "" {
		return Request{}, "", errors.New("missing workload")
	}
	resolved := ""
	for _, known := range core.WorkloadNames() {
		if strings.EqualFold(known, name) {
			resolved = known
			break
		}
	}
	if resolved == "" {
		return Request{}, "", fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(core.WorkloadNames(), ", "))
	}
	devName := strings.TrimSpace(req.Device)
	if devName == "" {
		devName = hwsim.RTX2080Ti.Name
	}
	var dev hwsim.Device
	found := false
	for _, d := range hwsim.AllDevices() {
		if strings.EqualFold(d.Name, devName) {
			dev, found = d, true
			break
		}
	}
	if !found {
		return Request{}, "", fmt.Errorf("unknown device %q", devName)
	}
	canon := Request{Workload: resolved, Device: dev.Name}
	return canon, canon.Workload + "\x00" + canon.Device, nil
}

// flight is one in-progress characterization that any number of identical
// requests wait on.
type flight struct {
	key  string
	req  Request
	id   string        // leader's request ID, scopes flight-recorder entries
	done chan struct{} // closed when res/err are final
	res  []byte
	err  error
	code int // HTTP status to pair with err

	// enqueuedAt is when the leader admitted the flight; the worker that
	// dequeues it records the gap as a queue.wait span so queueing delay
	// is visible on the stitched timeline.
	enqueuedAt time.Time

	// waiting counts the requests currently blocked on done. A worker
	// that dequeues a flight with zero waiters drops it: everyone who
	// wanted the report has already timed out or disconnected.
	waiting atomic.Int64
}

func (f *flight) join()              { f.waiting.Add(1) }
func (f *flight) leave()             { f.waiting.Add(-1) }
func (f *flight) loadWaiting() int64 { return f.waiting.Load() }

// Server is the characterization service. Construct with New, expose via
// Handler, and Close after the HTTP listener has drained.
type Server struct {
	cfg  Config
	pool *ops.Pool

	mu       sync.Mutex
	cache    *lru
	flights  map[string]*flight
	shutdown bool

	// queue carries dequeued batches to the workers: one entry per pass,
	// holding every flight the pass serves (a single flight when
	// coalescing is off). pending holds the batch groups still inside
	// their coalescing window, keyed by workload name.
	queue   chan []*flight
	pending map[string]*batchGroup
	wg      sync.WaitGroup // characterization workers

	// Design-space exploration (/v1/explore): the trace cache behind
	// trace-once/project-many and a semaphore bounding concurrent sweeps.
	traceMu    sync.Mutex
	traces     map[string]*traceEntry
	exploreSem chan struct{}

	reg  *metrics.Registry
	st   stats
	door *frontdoor.Door // request IDs, HTTP metrics, probes, /metrics, SLOs

	// recorder is the flight recorder fed by every characterization's
	// observer chain; nil when Config.RecorderSize is negative.
	recorder *trace.Recorder
	// opObs streams per-operator timings into the registry. Kept so
	// per-run observers can chain it with recorder attribution.
	opObs  trace.Observer
	logger *slog.Logger

	// draining flips readiness (/readyz) to 503 ahead of listener
	// shutdown so load balancers and the cluster router eject this
	// replica before its socket closes. Serving continues while draining.
	draining atomic.Bool

	closeOnce sync.Once
}

// New builds a server, spawns its characterization workers, and returns
// it ready to serve. The server owns one shared backend pool; Close
// releases it.
func New(cfg Config) (*Server, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:        cfg,
		pool:       cfg.Engine.NewPool(),
		cache:      newLRU(cfg.CacheSize),
		flights:    make(map[string]*flight),
		queue:      make(chan []*flight, cfg.QueueDepth),
		pending:    make(map[string]*batchGroup),
		reg:        reg,
		logger:     cfg.Logger,
		traces:     make(map[string]*traceEntry),
		exploreSem: make(chan struct{}, cfg.ExploreConcurrency),
	}
	s.st = newStats(reg, func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cache.Len()
	}, func() int { return len(s.queue) })
	if cfg.RecorderSize > 0 {
		s.recorder = trace.NewRecorder(cfg.RecorderSize)
	}
	s.cache.onEvict = func(string) { s.st.evictions.Inc() }
	ops.RegisterPoolMetrics(reg, s.pool)
	s.door = frontdoor.New(reg, cfg.Logger, frontdoor.Tier{
		MetricPrefix:     "nsserve",
		IDPrefix:         "ns",
		LogMessage:       "request",
		LatencyThreshold: sloLatencyThreshold,
		Ready:            func() bool { return !s.draining.Load() },
		NotReady:         "draining",
	})
	// Stream per-operator timings from every characterization into the
	// registry: the live form of the paper's operator breakdown.
	s.opObs = ops.NewOpObserver(reg)
	s.pool.SetObserver(s.opObs)
	s.wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's route table: the front door's /metrics,
// /healthz, /readyz (503 while draining) and /v1/slo plus the serving
// endpoints, every one instrumented with a request counter (by status
// code) and a latency histogram, both visible at /metrics.
func (s *Server) Handler() http.Handler {
	d := s.door
	mux := d.Mux()
	d.Handle(mux, "/v1/workloads", s.handleWorkloads)
	d.Handle(mux, "/v1/characterize", s.handleCharacterize)
	d.Handle(mux, "/v1/cache/fill", s.handleCacheFill)
	d.Handle(mux, "/v1/explore", s.handleExplore)
	d.Handle(mux, "/v1/trace", s.handleTrace)
	d.Handle(mux, "/v1/stats", s.handleStats)
	d.Handle(mux, "/debug/trace", s.handleDebugTrace)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// BeginDrain marks the server not-ready: /readyz starts answering 503 so
// health checkers eject this replica, while every serving endpoint keeps
// answering normally. Call it on SIGTERM *before* shutting the listener
// down, leave a grace period for checkers to observe it, then stop the
// listener and Close. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains the admission queue and tears down the characterization
// workers and the shared backend pool. Stop the HTTP listener first
// (http.Server.Shutdown) so no handler can race the queue teardown; any
// work still queued at that point is completed (waiters present) or
// dropped (waiters gone) before Close returns. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		s.shutdown = true
		// Flush groups still inside their window so their waiters are
		// answered; timers that fire later see flushed groups (or the
		// shutdown flag) and never touch the closed queue.
		s.drainPendingLocked()
		s.mu.Unlock()
		close(s.queue)
		s.wg.Wait()
		s.pool.Close()
		s.door.Close()
	})
}

// handleWorkloads lists the registered workloads with their taxonomy
// categories, as recorded at registration: it builds no model.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	b, err := json.Marshal(core.Workloads())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, b)
}

// handleStats reports the operational counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	b, err := json.Marshal(s.st.snapshot())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, b)
}

// recordServeSpan records one serving-layer range (kind "serve") from
// start to now on lane 0 under id. No-op with the recorder disabled.
func (s *Server) recordServeSpan(id, name string, start time.Time) {
	s.recordServeSpanAt(id, name, start, time.Now())
}

// recordServeSpanAt is recordServeSpan with an explicit end time, for
// call sites (the batch worker) that measure several ranges against one
// shared instant.
func (s *Server) recordServeSpanAt(id, name string, start, end time.Time) {
	if s.recorder == nil {
		return
	}
	s.recorder.RecordSpan(id, trace.SpanAt(name, "serve", 0, start, end))
}

// handleCharacterize is the serving hot path: canonicalize, cache lookup,
// singleflight join-or-lead, bounded admission, wait with deadline.
// Serving-layer ranges (request extent, cache probe, queue wait) are
// recorded as spans under the request ID so a stitched cross-process
// timeline shows where the request's time went before the engine ran.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	reqStart := time.Now()
	id := frontdoor.RequestID(r)
	defer func() { s.recordServeSpan(id, "serve.characterize", reqStart) }()
	s.st.requests.Inc()
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	canon, key, err := Canonicalize(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	probeStart := time.Now()
	s.mu.Lock()
	if b, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.recordServeSpan(id, "cache.probe(hit)", probeStart)
		s.st.cacheHits.Inc()
		w.Header().Set("X-NSServe-Cache", "hit")
		writeJSON(w, b)
		return
	}
	s.st.cacheMiss.Inc()
	s.recordServeSpan(id, "cache.probe(miss)", probeStart)
	if s.shutdown {
		s.mu.Unlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	f, joined := s.flights[key]
	if joined {
		s.st.dedupJoins.Inc()
		f.join()
	} else {
		f = &flight{key: key, req: canon, id: id, done: make(chan struct{}), enqueuedAt: time.Now()}
		// Register interest before the flight becomes visible to a
		// worker, or a fast dequeue could mistake it for abandoned.
		f.join()
		// Admission happens under the same lock that guards shutdown, so
		// a send can never race the queue close.
		if !s.admitLocked(f) {
			s.mu.Unlock()
			s.st.rejected.Inc()
			w.Header().Set("Retry-After", s.retryAfterHint())
			http.Error(w, "characterization queue is full", http.StatusTooManyRequests)
			return
		}
		s.flights[key] = f
	}
	s.mu.Unlock()
	defer f.leave()

	ctx := r.Context()
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case <-f.done:
	case <-ctx.Done():
		s.st.timeouts.Inc()
		http.Error(w, "request canceled", statusClientClosed)
		return
	case <-timer.C:
		s.st.timeouts.Inc()
		http.Error(w, "timed out waiting for characterization", http.StatusGatewayTimeout)
		return
	}
	if f.err != nil {
		code := f.code
		if code == 0 {
			code = http.StatusInternalServerError
		}
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterHint())
		}
		http.Error(w, f.err.Error(), code)
		return
	}
	if joined {
		w.Header().Set("X-NSServe-Cache", "join")
	} else {
		w.Header().Set("X-NSServe-Cache", "miss")
	}
	writeJSON(w, f.res)
}

// statusClientClosed mirrors nginx's 499: the client went away before the
// report was ready. Go's http package never sends it anywhere, but the
// request is already unanswerable, so the code only lands in logs/tests.
const statusClientClosed = 499

// FillRequest is the POST /v1/cache/fill payload: a report some other
// replica already computed, pushed into this replica's cache by the
// router's replication fan-fill. Report is kept as raw bytes end to end —
// the installed cache entry is byte-identical to the origin replica's,
// which is what keeps replicated cache hits deterministic.
type FillRequest struct {
	Request Request         `json:"request"`
	Report  json.RawMessage `json:"report"`
}

// handleCacheFill installs an externally computed report under the
// request's canonical cache key. First write wins: if the key is already
// cached (this replica computed it itself, or an earlier fill landed),
// the fill is dropped rather than overwriting — both sides hold bytes
// derived from the same deterministic characterization, and never
// replacing an entry in place means a concurrent hit can't observe a
// swap. Responds 204 on install, 200 on an ignored duplicate.
func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	fillStart := time.Now()
	id := frontdoor.RequestID(r)
	defer func() { s.recordServeSpan(id, "serve.cache_fill", fillStart) }()
	var fill FillRequest
	if err := json.NewDecoder(r.Body).Decode(&fill); err != nil {
		http.Error(w, "bad fill body: "+err.Error(), http.StatusBadRequest)
		return
	}
	canon, key, err := Canonicalize(fill.Request)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !reportFor(fill.Report, canon) {
		http.Error(w, "fill report is not a JSON object named "+strconv.Quote(canon.Workload)+
			" on device "+strconv.Quote(canon.Device), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if _, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		return
	}
	s.cache.Put(key, []byte(fill.Report))
	s.mu.Unlock()
	s.st.cacheFills.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// reportFor reports whether report is a JSON object whose "name" is the
// canonical workload and whose "device" is the canonical device, as every
// report of the request is: a registered workload's Name() is its
// registry name, and a report names the device it was analyzed against.
// Later hits serve a filled report's bytes as they are, so a fill that
// fails this would answer for the wrong workload or device, or with
// something that is no report at all.
func reportFor(report json.RawMessage, canon Request) bool {
	var fields map[string]json.RawMessage
	if json.Unmarshal(report, &fields) != nil {
		return false
	}
	var name, device string
	return json.Unmarshal(fields["name"], &name) == nil && name == canon.Workload &&
		json.Unmarshal(fields["device"], &device) == nil && device == canon.Device
}

// retryAfterHint estimates, in whole seconds, when a rejected client has
// a real chance of admission: the time for the current queue (plus the
// client's own run) to drain through the worker pool at the observed mean
// service time. With no completed runs yet the mean defaults to one
// second. The hint is clamped to [1, RequestTimeout] — below one second
// the header would round to "retry immediately" and re-trigger the same
// rejection; above the request timeout the retry could never be served in
// time anyway.
func (s *Server) retryAfterHint() string {
	mean := time.Second
	if runs := s.st.runSeconds.Count(); runs > 0 {
		mean = time.Duration(s.st.runNanos.Value() / runs)
	}
	est := time.Duration(float64(mean) * float64(len(s.queue)+1) / float64(s.cfg.Concurrency))
	// With coalescing on, admission additionally waits out a batch window
	// before a fresh group can even start executing.
	if s.cfg.BatchWindow > 0 {
		est += s.cfg.BatchWindow
	}
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if max := int(s.cfg.RequestTimeout.Seconds()); max >= 1 && secs > max {
		secs = max
	}
	return strconv.Itoa(secs)
}

// worker executes queued flights until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for fs := range s.queue {
		s.runBatch(fs)
	}
}

// finish retires the flight from the singleflight table, optionally
// caches its bytes, and wakes every waiter.
func (s *Server) finish(f *flight, cache bool) {
	s.mu.Lock()
	delete(s.flights, f.key)
	if cache {
		s.cache.Put(f.key, f.res)
	}
	s.mu.Unlock()
	close(f.done)
}

// run executes one pass of len(reqs) items of the requests' shared
// workload (core.ExecuteBatch) on an engine borrowed from the server's
// shared backend pool, and analyzes each item against its own request's
// device. runID scopes the pass in the flight recorder: its operator
// events, its timeline spans (the first item's), and core.build and
// core.analyze spans for the steps around the engine run, so
// /v1/trace?request_id= can rebuild the timeline later.
func (s *Server) run(reqs []Request, runID string) ([]*core.Report, error) {
	start := time.Now()
	wl, err := core.BuildWorkload(reqs[0].Workload)
	if err != nil {
		return nil, err
	}
	s.recordServeSpan(runID, "core.build", start)
	devs := make([]hwsim.Device, len(reqs))
	for i, req := range reqs {
		if devs[i], err = hwsim.DeviceByName(req.Device); err != nil {
			return nil, err
		}
	}
	opts := core.Options{Pool: s.pool, Observer: s.runObserver(runID)}
	traces, err := core.ExecuteBatch(wl, len(reqs), opts)
	if err != nil {
		return nil, err
	}
	s.recordRunSpans(runID, traces[0])
	start = time.Now()
	defer s.recordServeSpan(runID, "core.analyze", start)
	reports := make([]*core.Report, len(traces))
	for i, tr := range traces {
		opts.Device = devs[i]
		reports[i] = core.Analyze(wl.Name(), wl.Category(), tr, opts)
	}
	return reports, nil
}

// recordRunSpans copies a finished run's timeline spans into the flight
// recorder under id. No-op with the recorder disabled.
func (s *Server) recordRunSpans(id string, t *trace.Trace) {
	if s.recorder == nil || t == nil {
		return
	}
	s.recorder.RecordSpans(id, t.Spans())
}

// runObserver chains the registry's per-operator observer with
// flight-recorder attribution under id. With the recorder disabled it
// returns nil, leaving the pool's default observer in place.
func (s *Server) runObserver(id string) trace.Observer {
	if s.recorder == nil {
		return nil
	}
	rec := s.recorder.Observer(id)
	return func(ev *trace.Event) {
		s.opObs(ev)
		rec(ev)
	}
}

// handleTrace runs one characterization and streams its operator timeline
// in the requested format: Chrome trace-event JSON (format=chrome, the
// default — load it in Perfetto or chrome://tracing) or the native event
// JSON (format=json). Timelines are wall-clock and therefore per-run, so
// this endpoint bypasses the report cache and admission queue: it is a
// debugging surface, not the serving hot path.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	if id := q.Get("request_id"); id != "" {
		s.handleRequestTrace(w, id)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "chrome"
	}
	if format != "chrome" && format != "json" {
		http.Error(w, fmt.Sprintf("unknown format %q (want chrome or json)", format), http.StatusBadRequest)
		return
	}
	canon, _, err := Canonicalize(Request{Workload: q.Get("workload"), Device: q.Get("device")})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reports, err := s.run([]Request{canon}, frontdoor.RequestID(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if format == "chrome" {
		err = reports[0].Trace.WriteChromeTrace(w)
	} else {
		err = reports[0].Trace.WriteJSON(w)
	}
	if err != nil && s.logger != nil {
		s.logger.Error("trace write failed", "id", frontdoor.RequestID(r), "err", err)
	}
}

// handleRequestTrace serves the flight recorder's slice of one past
// request as a trace.RequestTrace wire document: the serving-layer and
// engine spans plus operator events recorded under the request ID, each
// stamped with this replica's node name. This is the replica half of
// cross-process stitching — the router fans this query out and merges
// the slices into one timeline.
func (s *Server) handleRequestTrace(w http.ResponseWriter, id string) {
	if s.recorder == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	rt := s.recorder.RequestTrace(id, s.cfg.NodeName)
	b, err := json.Marshal(rt)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, b)
}

// debugTraceEntry is one flight-recorder row as served by /debug/trace.
type debugTraceEntry struct {
	ID     string  `json:"id"`
	Time   string  `json:"time"`
	Name   string  `json:"name"`
	Kernel string  `json:"kernel,omitempty"`
	Stage  string  `json:"stage,omitempty"`
	Phase  string  `json:"phase"`
	Worker int     `json:"worker"`
	DurNs  int64   `json:"dur_ns"`
	FLOPs  int64   `json:"flops"`
	Bytes  int64   `json:"bytes"`
	Spars  float64 `json:"sparsity"`
}

// handleDebugTrace dumps the flight recorder: the last N operator events
// the server executed, each tagged with the request ID that caused it.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	if s.recorder == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	snap := s.recorder.Snapshot()
	entries := make([]debugTraceEntry, len(snap))
	for i, rec := range snap {
		entries[i] = debugTraceEntry{
			ID:     rec.ID,
			Time:   rec.Time.Format(time.RFC3339Nano),
			Name:   rec.Ev.Name,
			Kernel: rec.Ev.Kernel,
			Stage:  rec.Ev.Stage,
			Phase:  rec.Ev.Phase.String(),
			Worker: rec.Ev.Worker,
			DurNs:  rec.Ev.Dur.Nanoseconds(),
			FLOPs:  rec.Ev.FLOPs,
			Bytes:  rec.Ev.Bytes,
			Spars:  rec.Ev.Sparsity,
		}
	}
	b, err := json.Marshal(struct {
		Capacity int               `json:"capacity"`
		Total    uint64            `json:"total"`
		Dropped  uint64            `json:"dropped"`
		Events   []debugTraceEntry `json:"events"`
	}{s.recorder.Cap(), s.recorder.Total(), s.recorder.Dropped(), entries})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, b)
}

func writeJSON(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
