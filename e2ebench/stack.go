package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/membership"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
)

// replicaNames are the replicas' ring identities. The ring hashes the
// replica URL, so URLs carrying ephemeral ports would reshuffle key
// ownership on every run; fixed names resolved by loopbackDialer keep
// placement identical across runs and seeds.
var replicaNames = []string{"replica-a", "replica-b"}

// StackConfig is the serving stack under test, recorded in every result.
type StackConfig struct {
	Backend       string   `json:"backend"`
	Workers       int      `json:"workers"`
	Concurrency   int      `json:"concurrency"`
	BatchWindowMs float64  `json:"batch_window_ms"`
	CacheSize     int      `json:"cache_size"`
	Replicas      []string `json:"replicas"`
	Membership    bool     `json:"router_join"`
	// RequestLog is how every tier logs each request: the shipped
	// binaries' default text log, written to a discarding writer so the
	// formatting work is still done.
	RequestLog string `json:"request_log"`
}

// newStackConfig returns cmd/nsserve's shipped replica defaults (parallel
// backend, GOMAXPROCS workers, two characterization workers, 2 ms
// coalescing window, per-request text log) with the given cache setting,
// behind a router with cmd/nsrouter's defaults.
func newStackConfig(cacheSize int) StackConfig {
	return StackConfig{
		Backend:       ops.BackendParallel,
		Workers:       runtime.GOMAXPROCS(0),
		Concurrency:   2,
		BatchWindowMs: 2,
		CacheSize:     cacheSize,
		Replicas:      replicaURLs(),
		Membership:    true,
		RequestLog:    logging.FormatText + " to io.Discard",
	}
}

func replicaURLs() []string {
	urls := make([]string, len(replicaNames))
	for i, n := range replicaNames {
		urls[i] = "http://" + n
	}
	return urls
}

// loopbackDialer resolves the replica names to their current loopback
// listeners for every client that uses http.DefaultTransport — the
// router's proxy client and its health prober among them.
var loopbackDialer = struct {
	sync.Mutex
	addrs map[string]string
}{addrs: map[string]string{}}

func init() {
	tr := http.DefaultTransport.(*http.Transport)
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		loopbackDialer.Lock()
		if real, ok := loopbackDialer.addrs[addr]; ok {
			addr = real
		}
		loopbackDialer.Unlock()
		return d.DialContext(ctx, network, addr)
	}
}

// stack is one router and its replicas, all in this process, each behind
// its own loopback listener.
type stack struct {
	router    *cluster.Router
	routerURL string
	replicas  []*serve.Server
	// replicaURLs are the replicas' real listener URLs, for reading their
	// /metrics directly.
	replicaURLs []string
	servers     []*http.Server
}

func listen(h http.Handler) (*http.Server, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(lis)
	return hs, lis.Addr().String(), nil
}

// newStack starts the replicas, then the router with them as its static
// replica list: static replicas enter the ring inside cluster.New, so no
// health-probe round is waited for.
func newStack(cfg StackConfig) (*stack, error) {
	// Like cmd/nsserve and cmd/nsrouter without -quiet: one log line per
	// request, formatted and then discarded.
	logger, err := logging.New(io.Discard, logging.FormatText, false)
	if err != nil {
		return nil, err
	}
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	for _, name := range replicaNames {
		srv, err := serve.New(serve.Config{
			Engine:      ops.Config{Backend: cfg.Backend, Workers: cfg.Workers},
			CacheSize:   cfg.CacheSize,
			Concurrency: cfg.Concurrency,
			BatchWindow: msDuration(cfg.BatchWindowMs),
			NodeName:    name,
			Logger:      logger,
		})
		if err != nil {
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		s.replicas = append(s.replicas, srv)
		hs, addr, err := listen(srv.Handler())
		if err != nil {
			return nil, fmt.Errorf("listening for %s: %w", name, err)
		}
		s.servers = append(s.servers, hs)
		s.replicaURLs = append(s.replicaURLs, "http://"+addr)
		loopbackDialer.Lock()
		loopbackDialer.addrs[name+":80"] = addr
		loopbackDialer.Unlock()
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:   cfg.Replicas,
		Membership: membership.Config{Enabled: cfg.Membership},
		NodeName:   "router",
		Logger:     logger,
	})
	if err != nil {
		return nil, fmt.Errorf("starting router: %w", err)
	}
	s.router = rt
	hs, addr, err := listen(rt.Handler())
	if err != nil {
		return nil, fmt.Errorf("listening for router: %w", err)
	}
	s.servers = append(s.servers, hs)
	s.routerURL = "http://" + addr
	ok = true
	return s, nil
}

// Close stops the listeners first, then the router and the replicas, so
// no handler races a replica's queue teardown.
func (s *stack) Close() {
	for _, hs := range s.servers {
		hs.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, r := range s.replicas {
		r.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
