// Command nsserve runs the characterization service: an HTTP/JSON server
// that executes neuro-symbolic workload characterizations on a shared
// backend worker pool, caches the deterministic reports, deduplicates
// concurrent identical requests, and sheds load with 429s when its
// admission queue fills. Each cache miss runs as one characterization of
// its own on the next free worker — see the "Batching" section of the
// README for why misses are not grouped.
//
// Usage:
//
//	nsserve -addr :8080 -backend parallel -workers 4
//
//	curl localhost:8080/v1/workloads
//	curl -X POST localhost:8080/v1/characterize -d '{"workload":"NVSA"}'
//	curl -N -X POST localhost:8080/v1/explore \
//	  -d '{"workload":"NVSA","space":{"mem_bw_gbs":{"min":60,"max":1200,"steps":8,"log":true}}}'
//	curl localhost:8080/v1/stats
//	curl localhost:8080/metrics    # Prometheus text exposition
//	curl localhost:8080/healthz    # liveness probe (process up)
//	curl localhost:8080/readyz     # readiness probe (503 while draining)
//	curl -o t.json 'localhost:8080/v1/trace?workload=NVSA'  # Perfetto timeline
//	curl localhost:8080/debug/trace                         # flight recorder
//
// /metrics exposes the full observability surface: per-endpoint request
// counters and latency histograms, cache hit/miss/eviction counters,
// queue-depth/in-flight/pool gauges, per-operator timing histograms, and
// Go runtime samples.
//
// SIGINT/SIGTERM shut the server down gracefully: /readyz flips to 503
// first and the listener keeps answering for -drain-grace so routing
// tiers (nsrouter) eject the replica before connections start failing;
// then the listener stops accepting, in-flight characterizations drain,
// and the backend worker pool is torn down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/membership"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backendName := flag.String("backend", ops.BackendParallel, "execution backend: serial or parallel")
	workers := flag.Int("workers", 0, "parallel backend worker count (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "report cache capacity (0 = default 128, negative disables)")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = default 64)")
	concurrency := flag.Int("concurrency", 0, "concurrent characterization workers (0 = default 2)")
	timeout := flag.Duration("timeout", 0, "per-request timeout incl. queueing (0 = default 60s)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	drainGrace := flag.Duration("drain-grace", 0, "time to answer 503 on /readyz before the listener closes (lets routers eject this replica first)")
	recorderSize := flag.Int("flight-recorder", 0, "flight-recorder capacity in events (0 = default 512, negative disables)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	exploreMaxPoints := flag.Int("explore-max-points", 0, "max grid points per /v1/explore sweep (0 = default 65536)")
	exploreConcurrency := flag.Int("explore-concurrency", 0, "concurrent /v1/explore sweeps before 429 (0 = default 2)")
	nodeName := flag.String("node-name", "", "replica identity in stitched traces (default <hostname>-<pid>)")
	announce := flag.String("announce", "", "nsrouter base URL to join on startup and heartbeat (empty = no announcement)")
	advertise := flag.String("advertise", "", "base URL this replica is reachable at (default http://127.0.0.1<-addr> when -addr is :port)")
	announceInterval := flag.Duration("announce-interval", 0, "heartbeat period to -announce (0 = default 5s; keep at or below a third of the router's -member-ttl)")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	logFormat := flag.String("log-format", logging.FormatText, "log output format: text or json")
	flag.Parse()

	logger, err := logging.Setup(os.Stderr, *logFormat, *quiet)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Engine:             ops.Config{Backend: *backendName, Workers: *workers},
		CacheSize:          *cacheSize,
		QueueDepth:         *queueDepth,
		Concurrency:        *concurrency,
		RequestTimeout:     *timeout,
		RecorderSize:       *recorderSize,
		Logger:             logger,
		Pprof:              *enablePprof,
		ExploreMaxPoints:   *exploreMaxPoints,
		ExploreConcurrency: *exploreConcurrency,
		NodeName:           *nodeName,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: frontdoor.ReadHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nsserve: listening on %s (backend %s)\n", *addr, *backendName)

	// Dynamic membership: join the router's cluster and keep heartbeating
	// until drain, when one explicit leave withdraws this replica from the
	// ring faster than the router's TTL or health ejection would.
	var announcer *membership.Announcer
	if *announce != "" {
		self := *advertise
		if self == "" {
			if !strings.HasPrefix(*addr, ":") {
				fatal(fmt.Errorf("-announce needs -advertise when -addr (%q) is not a bare :port", *addr))
			}
			self = "http://127.0.0.1" + *addr
		}
		announcer, err = membership.NewAnnouncer(membership.AnnouncerConfig{
			Router:   *announce,
			Self:     self,
			Interval: *announceInterval,
			Logger:   logger,
		})
		if err != nil {
			fatal(err)
		}
		announcer.Start()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nsserve: shutting down, draining in-flight work...")
		if announcer != nil {
			// Leave the cluster before readiness flips: the router stops
			// routing new keys here while the drain grace still answers
			// the requests already in flight.
			announcer.Close()
		}
		srv.BeginDrain()
		if *drainGrace > 0 {
			// Keep serving (with /readyz answering 503) long enough for
			// upstream health checkers to route around this replica.
			time.Sleep(*drainGrace)
		}
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "nsserve: drain incomplete:", err)
		}
		srv.Close()
	case err := <-errc:
		srv.Close()
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsserve:", err)
	os.Exit(1)
}
