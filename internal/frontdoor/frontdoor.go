// Package frontdoor is the HTTP edge both serving tiers mount, nsserve
// replicas (internal/serve) and the nsrouter routing tier
// (internal/cluster): request-ID accept-or-mint, per-endpoint metrics,
// the availability SLO feed and request log, the /metrics, /healthz,
// /readyz and /v1/slo endpoints, and the tier's two objectives. A tier
// supplies only what differs between the tiers, as a Tier set in code.
package frontdoor

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/slo"
)

// ReadHeaderTimeout bounds how long a client may take to send its request
// headers, so one that never finishes them cannot hold a connection and
// its goroutine forever. Both binaries set it on their http.Server.
const ReadHeaderTimeout = 10 * time.Second

const (
	// The objectives' targets, the same on both tiers: the non-5xx share
	// of non-probe responses, and the share of /v1/characterize responses
	// within Tier.LatencyThreshold.
	availabilityTarget = 0.999
	latencyTarget      = 0.95

	// maxIDLen bounds an inbound X-Request-ID accepted as is: IDs are held
	// in every flight-recorder entry and forwarded on every upstream
	// attempt, so their size must not be the client's choice.
	maxIDLen = 128
)

// Tier is what one serving tier supplies to its front door.
type Tier struct {
	// MetricPrefix names the tier's HTTP series, e.g. "nsserve" gives
	// nsserve_http_requests_total and nsserve_http_request_seconds.
	MetricPrefix string
	// IDPrefix starts every minted request ID, e.g. "ns" gives
	// "ns-<nonce>-<seq>".
	IDPrefix string
	// LogMessage is the message of the per-request log line.
	LogMessage string
	// LatencyThreshold is the characterize_latency objective's cutoff.
	LatencyThreshold time.Duration
	// Ready is the readiness predicate /readyz answers with; NotReady is
	// the body of its 503.
	Ready    func() bool
	NotReady string
}

// Door is one tier's front door. Construct with New, build the route
// table with Mux and Handle, and Close when the tier shuts down.
type Door struct {
	tier   Tier
	reg    *metrics.Registry
	logger *slog.Logger

	reqs *metrics.CounterVec   // <prefix>_http_requests_total{endpoint,code}
	lat  *metrics.HistogramVec // <prefix>_http_request_seconds{endpoint}

	// good/total are the availability feed, unregistered: the SLO plane
	// exports its own ns_slo_* view of them.
	slos        *slo.Set
	good, total metrics.Counter

	// Minted IDs are a per-process nonce plus a counter, so they are
	// unique across restarts without coordination.
	mintPrefix string // "<IDPrefix>-<nonce>-"
	seq        atomic.Uint64
}

// New registers the tier's HTTP series, Go runtime samples and build info
// in reg, and starts the SLO sampler. Logger may be nil (no request log).
func New(reg *metrics.Registry, logger *slog.Logger, t Tier) *Door {
	d := &Door{
		tier:   t,
		reg:    reg,
		logger: logger,
		reqs: reg.CounterVec(t.MetricPrefix+"_http_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		lat: reg.HistogramVec(t.MetricPrefix+"_http_request_seconds",
			"HTTP request latency by endpoint.", metrics.LatencyBuckets(), "endpoint"),
		mintPrefix: t.IDPrefix + "-" + newNonce() + "-",
	}
	metrics.NewGoCollector(reg)
	metrics.RegisterBuildInfo(reg)
	d.slos = slo.NewSet(slo.Config{})
	for _, o := range []slo.Objective{{
		Name:        "availability",
		Description: "Non-5xx responses across all endpoints (health/readiness probes excluded).",
		Target:      availabilityTarget,
		Source:      slo.FromCounters(d.good.Value, d.total.Value),
	}, {
		Name: "characterize_latency",
		Description: fmt.Sprintf("/v1/characterize responses within %s (histogram-bucket resolution).",
			t.LatencyThreshold),
		Target: latencyTarget,
		Source: slo.FromHistogram(d.lat.With("/v1/characterize"), t.LatencyThreshold.Seconds()),
	}} {
		// Names and targets are constants: only a bug can fail here.
		if err := d.slos.Add(o); err != nil {
			panic(err)
		}
	}
	d.slos.Register(reg)
	d.slos.Start()
	return d
}

// Close stops the SLO sampler. Idempotent.
func (d *Door) Close() { d.slos.Close() }

// SLOFeed returns the availability objective's counters: every non-probe
// response adds to total, and every non-5xx one also to good.
func (d *Door) SLOFeed() (good, total *metrics.Counter) { return &d.good, &d.total }

// Mux returns a route table with the front door's own endpoints mounted:
// /metrics, /healthz, /readyz and /v1/slo. The tier adds its endpoints
// with Handle.
func (d *Door) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	d.Handle(mux, "/metrics", d.handleMetrics)
	d.Handle(mux, "/healthz", d.handleHealthz)
	d.Handle(mux, "/readyz", d.handleReadyz)
	d.Handle(mux, "/v1/slo", d.handleSLO)
	return mux
}

// Handle mounts h at endpoint on mux behind the front door's
// instrumentation.
func (d *Door) Handle(mux *http.ServeMux, endpoint string, h http.HandlerFunc) {
	mux.HandleFunc(endpoint, d.instrument(endpoint, h))
}

type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestID returns the ID the front door accepted or minted for r.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID).(string)
	return id
}

// validID reports whether an inbound X-Request-ID is used as is: 1 to
// maxIDLen bytes of [A-Za-z0-9._:-], not starting with '_'. The leading
// underscore is reserved for the router's own trace IDs (_health,
// _membership), which a client must not be able to write into.
func validID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen || id[0] == '_' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// instrument wraps h with request-ID handling, per-endpoint metrics, the
// availability SLO feed and the request log line. The latency child is
// resolved once here; only the (endpoint, code) counter pays a labeled
// lookup per request, after the response is written.
func (d *Door) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := d.lat.With(endpoint)
	// Probe 503s are the readiness contract working as designed (a
	// draining replica, an empty ring): they must not burn the
	// availability budget they exist to protect.
	probe := endpoint == "/healthz" || endpoint == "/readyz"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !validID(id) {
			id = d.mintPrefix + strconv.FormatUint(d.seq.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur := time.Since(start)
		lat.ObserveSeconds(dur.Nanoseconds())
		d.reqs.With(endpoint, strconv.Itoa(sw.code)).Inc()
		if !probe {
			d.total.Inc()
			if sw.code < 500 {
				d.good.Inc()
			}
		}
		if d.logger != nil {
			d.logger.Info(d.tier.LogMessage,
				"method", r.Method, "path", r.URL.Path,
				"status", sw.code, "dur", dur, "id", id)
		}
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming endpoints
// (/v1/explore) push NDJSON chunks through the instrumentation.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AllowMethods gates r to the listed methods. On a mismatch it answers
// 405 with the Allow header RFC 9110 §15.5.6 requires and reports false.
func AllowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// handleMetrics exposes the tier's registry in the Prometheus text
// format. The router serves only its own registry: replica metrics are
// scraped from the replicas, since summing text expositions would lose
// label identity.
func (d *Door) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !AllowMethods(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	if r.Method == http.MethodHead {
		return
	}
	d.reg.WriteProm(w)
}

// handleHealthz is the liveness probe: a cheap 200 that proves the
// process is up, accepting connections, and routing requests. It
// deliberately checks nothing deeper — a draining or saturated server is
// still *alive*. Routing decisions belong to readiness (/readyz).
func (d *Door) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeProbe(w, r, http.StatusOK, "ok")
}

// handleReadyz is the readiness probe: 200 while the tier wants new
// traffic, 503 with the tier's NotReady body otherwise. Load balancers
// and the cluster router route on this; liveness (/healthz) stays 200
// throughout, so orchestrators don't kill a replica that is merely
// retiring.
func (d *Door) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if d.tier.Ready() {
		writeProbe(w, r, http.StatusOK, "ready")
		return
	}
	writeProbe(w, r, http.StatusServiceUnavailable, d.tier.NotReady)
}

// writeProbe answers a GET or HEAD probe with code and a one-line body.
func writeProbe(w http.ResponseWriter, r *http.Request, code int, body string) {
	if !AllowMethods(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	if r.Method != http.MethodHead {
		fmt.Fprintln(w, body)
	}
}

// handleSLO reports the tier's objectives: error budgets, windowed burn
// rates, and alert state, as computed by the slo sampler.
func (d *Door) handleSLO(w http.ResponseWriter, r *http.Request) {
	if !AllowMethods(w, r, http.MethodGet) {
		return
	}
	b, err := json.Marshal(d.slos.Report())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// newNonce returns a short random hex tag for request-ID minting.
func newNonce() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "static"
	}
	return hex.EncodeToString(b[:])
}
