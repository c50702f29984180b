// Command nsrouter fronts a fleet of nsserve replicas: it shards
// characterization requests across them by the same canonical
// workload/device key the replicas cache under (so each key has exactly
// one owning replica and the cluster cache scales linearly), health-checks
// every replica's /readyz, ejects failing nodes from the hash ring, fails
// requests over to the next ring node with jittered exponential backoff,
// and optionally hedges slow requests onto a second replica.
//
// Replicas can be pinned at startup (-replicas) or, with -join (the
// default), announce themselves at runtime: each nsserve started with
// -announce posts /v1/cluster/join and heartbeats it, enters the ring
// after passing readiness probation, and is withdrawn on drain (or when
// heartbeats stop for -member-ttl). With -replication N, each cache key
// is kept warm on N ring owners and reads go to the least-loaded one.
//
// Usage:
//
//	nsrouter -addr :9090 -replicas http://host-a:8080,http://host-b:8080
//	nsrouter -addr :9090 -replication 2      # replicas join at runtime
//
//	curl -X POST localhost:9090/v1/characterize -d '{"workload":"NVSA"}'
//	curl localhost:9090/v1/stats            # aggregated across live replicas
//	curl localhost:9090/v1/cluster/members  # membership table + departures
//	curl localhost:9090/metrics             # router's own Prometheus registry
//	curl localhost:9090/readyz              # 503 once every replica is ejected
//
// The API mirrors nsserve, so clients point at the router unchanged.
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

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/membership"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated nsserve base URLs (optional with -join)")
	join := flag.Bool("join", true, "accept runtime replica joins on POST /v1/cluster/join")
	memberTTL := flag.Duration("member-ttl", 0, "drop a joined replica after this long without a heartbeat (0 = default 15s)")
	replication := flag.Int("replication", 1, "cache owners per key: misses fan-fill to N ring owners, reads pick the least-loaded")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 128)")
	maxAttempts := flag.Int("max-attempts", 0, "distinct replicas one request may try (0 = default 3)")
	hedge := flag.Bool("hedge", false, "hedge slow requests onto a second replica")
	hedgeQuantile := flag.Float64("hedge-quantile", 0, "attempt-latency quantile that arms the hedge timer (0 = default 0.9)")
	probeInterval := flag.Duration("probe-interval", 0, "health-probe period (0 = default 2s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe timeout (0 = default 1s)")
	ejectAfter := flag.Int("eject-after", 0, "consecutive failures before ejection (0 = default 3)")
	readmitAfter := flag.Int("readmit-after", 0, "consecutive probation successes before readmission (0 = default 2)")
	upstreamTimeout := flag.Duration("timeout", 0, "per-attempt upstream timeout (0 = default 90s)")
	nodeName := flag.String("node-name", "", "router identity in stitched traces (default nsrouter-<hostname>-<pid>)")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	logFormat := flag.String("log-format", logging.FormatText, "log output format: text or json")
	flag.Parse()

	if *replicas == "" && !*join {
		fatal(fmt.Errorf("-replicas is required when -join=false (comma-separated nsserve URLs)"))
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	logger, err := logging.Setup(os.Stderr, *logFormat, *quiet)
	if err != nil {
		fatal(err)
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:        urls,
		Membership:      membership.Config{Enabled: *join, TTL: *memberTTL},
		Replication:     *replication,
		VNodes:          *vnodes,
		MaxAttempts:     *maxAttempts,
		Hedge:           *hedge,
		HedgeQuantile:   *hedgeQuantile,
		UpstreamTimeout: *upstreamTimeout,
		Health: cluster.HealthConfig{
			Interval:     *probeInterval,
			Timeout:      *probeTimeout,
			EjectAfter:   *ejectAfter,
			ReadmitAfter: *readmitAfter,
		},
		Logger:   logger,
		NodeName: *nodeName,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: rt.Handler(), ReadHeaderTimeout: frontdoor.ReadHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nsrouter: listening on %s, fronting %d static replicas (dynamic join %v)\n",
		*addr, len(urls), *join)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nsrouter: shutting down...")
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "nsrouter: drain incomplete:", err)
		}
		rt.Close()
	case err := <-errc:
		rt.Close()
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsrouter:", err)
	os.Exit(1)
}
