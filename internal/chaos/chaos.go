// Package chaos is the deterministic fault-injection and soak harness
// for the nsbench serving tier. A scenario stands up a real cluster — an
// nsrouter (internal/cluster) with dynamic membership enabled and N
// nsserve replicas (internal/serve) behind per-replica FaultProxy shims,
// all on real localhost listeners — and then does two things at once:
//
//   - drives sustained mixed traffic (characterize hits and misses,
//     bursts of identical requests, design-space sweeps) from seeded
//     generators, and
//   - executes a seeded fault schedule against the replicas: hard kills
//     (listener severed mid-flight, no leave announcement), delayed
//     restarts that re-join the ring at runtime as new generations,
//     extra runtime joins, and latency/connection-drop fault windows.
//
// The harness asserts the serving tier's availability contract under all
// of it: zero failed requests (the router's ejection, failover, and
// replication must absorb every fault), report fingerprints stable
// across replica generations (determinism survives recomputation on new
// processes), the router's SLO error budgets not exhausted, and stitched
// cross-process traces still well-formed. Every fault and check lands in
// an append-only JSONL event log, so a failed soak run leaves a timeline
// to debug from.
//
// cmd/nschaos is the CLI front end; the env-gated TestChaosSoak runs the
// same scenario in CI.
package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/membership"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/slo"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes one scenario run.
type Config struct {
	// Replicas is the initial replica count; 0 selects 3, minimum 2 (a
	// kill must always leave a survivor).
	Replicas int
	// Replication is the router's cache fan-fill factor; 0 selects 2.
	Replication int
	// Seed drives every random choice — traffic mix, key choice, victim
	// selection — so a scenario replays. 0 selects 1.
	Seed int64
	// Duration is the traffic window; 0 selects 10s.
	Duration time.Duration
	// Clients is the number of concurrent traffic generators; 0 selects 2.
	Clients int
	// Kills is the number of crash+restart cycles; 0 selects 2 (set -1
	// for none).
	Kills int
	// Joins is the number of extra replicas joining at runtime beyond the
	// initial set and restarts; 0 selects 1 (set -1 for none).
	Joins int
	// Workloads are the registry names driven; empty selects LNN and LTN.
	Workloads []string
	// Devices are the hwsim device names driven; empty selects the
	// paper's RTX 2080 Ti plus Xavier NX.
	Devices []string
	// Events, when non-nil, receives the scenario timeline as JSONL.
	Events io.Writer
	// Logger, when non-nil, is handed to the router (per-request lines
	// plus ejection/membership events).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Replicas < 2 {
		c.Replicas = 2
	}
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.Kills == 0 {
		c.Kills = 2
	} else if c.Kills < 0 {
		c.Kills = 0
	}
	if c.Joins == 0 {
		c.Joins = 1
	} else if c.Joins < 0 {
		c.Joins = 0
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"LNN", "LTN"}
	}
	if len(c.Devices) == 0 {
		c.Devices = []string{"RTX 2080 Ti", "Xavier NX"}
	}
}

// Failure is one violated expectation during the run.
type Failure struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Result is a completed scenario's outcome. Err() folds the invariants
// into one verdict.
type Result struct {
	// Requests counts every HTTP request the generators issued.
	Requests int64
	// ByKind breaks traffic down (characterize/batch/explore plus the
	// cache dispositions hit/miss/join reported by the replicas).
	ByKind map[string]int64
	// FailureCount is the total failed requests/streams; Failures holds
	// the first 64 in detail.
	FailureCount int64
	Failures     []Failure
	// KeyMismatches lists canonical keys whose deterministic report
	// fields changed across replica generations (must be empty).
	KeyMismatches []string
	// Generations is how many replica processes ran in total (initial +
	// restarts + runtime joins).
	Generations int
	// SLOBudgets is each router objective's remaining error budget at
	// scenario end (all must be > 0).
	SLOBudgets map[string]float64
	// TracesValidated counts tagged requests whose stitched Chrome trace
	// fetched and validated cleanly (at least one required).
	TracesValidated int
	// Events is the full scenario timeline.
	Events []Event
}

// Err reports the first-class invariant violations, or nil when the
// scenario held.
func (r *Result) Err() error {
	var probs []string
	if r.FailureCount > 0 {
		first := ""
		if len(r.Failures) > 0 {
			first = fmt.Sprintf(" (first: %s: %s)", r.Failures[0].Kind, r.Failures[0].Detail)
		}
		probs = append(probs, fmt.Sprintf("%d failed requests%s", r.FailureCount, first))
	}
	if len(r.KeyMismatches) > 0 {
		probs = append(probs, fmt.Sprintf("deterministic report fields changed across generations for %v", r.KeyMismatches))
	}
	names := make([]string, 0, len(r.SLOBudgets))
	for name := range r.SLOBudgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if r.SLOBudgets[name] <= 0 {
			probs = append(probs, fmt.Sprintf("SLO %q error budget exhausted", name))
		}
	}
	if r.TracesValidated == 0 {
		probs = append(probs, "no stitched trace could be validated")
	}
	if len(probs) == 0 {
		return nil
	}
	return errors.New("chaos: " + strings.Join(probs, "; "))
}

// replicaGen is one live replica generation: a real serve.Server behind
// a real listener, fronted by a FaultProxy, heartbeating membership to
// the router. Its ring identity is the proxy URL.
type replicaGen struct {
	name   string
	url    string
	proxy  *FaultProxy
	hs     *http.Server
	srv    *serve.Server
	hbStop chan struct{}
	hbDone chan struct{}
}

type runner struct {
	cfg  Config
	base string // router base URL
	rt   *cluster.Router
	rsrv *http.Server
	http *http.Client
	log  *EventLog

	hbInterval time.Duration

	// exploreSlot serializes sweeps: the replicas' default explore
	// concurrency is small, and a shed sweep would be a false failure.
	exploreSlot chan struct{}

	requests     atomic.Int64
	failureCount atomic.Int64

	mu          sync.Mutex
	gens        []*replicaGen // live generations
	genSeq      int
	byKind      map[string]int64
	reports     map[string]string // canonical key -> deterministic fingerprint
	mismatched  map[string]bool
	recentIDs   []string // tagged request IDs, newest last
	failures    []Failure
	teardownOne sync.Once
}

// Run executes one scenario to completion and returns its Result. The
// returned error covers harness-level problems (could not stand the
// cluster up); invariant violations live in Result.Err().
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	r := &runner{
		cfg:         cfg,
		http:        &http.Client{Timeout: 30 * time.Second},
		log:         NewEventLog(cfg.Events),
		hbInterval:  250 * time.Millisecond,
		exploreSlot: make(chan struct{}, 1),
		byKind:      map[string]int64{},
		reports:     map[string]string{},
		mismatched:  map[string]bool{},
	}

	rt, err := cluster.New(cluster.Config{
		Membership:     membership.Config{Enabled: true, TTL: 1200 * time.Millisecond, SweepInterval: 200 * time.Millisecond},
		Replication:    cfg.Replication,
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  100 * time.Millisecond,
		Hedge:          true,
		Health:         cluster.HealthConfig{Interval: 20 * time.Millisecond, Timeout: 2 * time.Second, EjectAfter: 2, ReadmitAfter: 2},
		RecorderSize:   8192,
		NodeName:       "nschaos-router",
		Logger:         cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	r.rt = rt
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	r.rsrv = &http.Server{Handler: rt.Handler()}
	go r.rsrv.Serve(rlis)
	r.base = "http://" + rlis.Addr().String()
	defer r.teardown()

	// Every replica — the initial set included — enters through the
	// runtime join protocol: the router starts with an empty ring.
	r.log.Record(EventMilestone, "", fmt.Sprintf("scenario start: seed=%d replicas=%d replication=%d kills=%d joins=%d duration=%s",
		cfg.Seed, cfg.Replicas, cfg.Replication, cfg.Kills, cfg.Joins, cfg.Duration))
	for i := 0; i < cfg.Replicas; i++ {
		if _, err := r.startGen(i); err != nil {
			return nil, err
		}
	}
	if err := r.awaitLive(cfg.Replicas); err != nil {
		return nil, err
	}
	r.log.Record(EventMilestone, "", fmt.Sprintf("cluster live: %d replicas admitted", cfg.Replicas))

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.client(ctx, i)
		}(i)
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		r.schedule()
	}()
	wg.Wait()
	swg.Wait()
	r.log.Record(EventMilestone, "", "traffic complete")

	res := r.collect()
	r.finalChecks(res)
	res.Events = r.log.Events()
	return res, nil
}

// startGen starts one replica generation in slot and begins announcing
// it to the router.
func (r *runner) startGen(slot int) (*replicaGen, error) {
	r.mu.Lock()
	r.genSeq++
	seq := r.genSeq
	r.mu.Unlock()
	name := fmt.Sprintf("replica-%d-gen%d", slot, seq)
	s, err := serve.New(serve.Config{
		CacheSize: 512,
		NodeName:  name,
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(lis)
	proxy, err := NewFaultProxy("http://" + lis.Addr().String())
	if err != nil {
		hs.Close()
		s.Close()
		return nil, err
	}
	g := &replicaGen{
		name:   name,
		url:    proxy.URL(),
		proxy:  proxy,
		hs:     hs,
		srv:    s,
		hbStop: make(chan struct{}),
		hbDone: make(chan struct{}),
	}
	r.mu.Lock()
	r.gens = append(r.gens, g)
	r.mu.Unlock()
	go r.heartbeat(g)
	r.log.Record(EventJoin, g.url, name)
	return g, nil
}

// heartbeat announces g to the router immediately and then on every
// tick, keeping its membership TTL fresh. A crash stops the loop without
// a leave — silent death is the router's problem to detect.
func (r *runner) heartbeat(g *replicaGen) {
	defer close(g.hbDone)
	t := time.NewTicker(r.hbInterval)
	defer t.Stop()
	for {
		r.postJoin(g.url)
		select {
		case <-g.hbStop:
			return
		case <-t.C:
		}
	}
}

func (r *runner) postJoin(nodeURL string) {
	body := fmt.Sprintf(`{"url":%q}`, nodeURL)
	resp, err := r.http.Post(r.base+"/v1/cluster/join", "application/json", strings.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// kill crashes g: heartbeats stop silently and every listener is severed
// with in-flight connections — the router must notice via its own
// probes/attempts, never via a goodbye.
func (r *runner) kill(g *replicaGen) {
	r.mu.Lock()
	for i, x := range r.gens {
		if x == g {
			r.gens = append(r.gens[:i], r.gens[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	close(g.hbStop)
	g.proxy.Close()
	g.hs.Close()
	g.srv.Close()
	<-g.hbDone
}

// pickVictim returns a seeded-random live generation to crash, or nil
// when a kill would leave no survivor.
func (r *runner) pickVictim(rng *mrand.Rand) *replicaGen {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gens) < 2 {
		return nil
	}
	return r.gens[rng.Intn(len(r.gens))]
}

// pickProxy returns a seeded-random live proxy for a fault window.
func (r *runner) pickProxy(rng *mrand.Rand) *FaultProxy {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gens) == 0 {
		return nil
	}
	return r.gens[rng.Intn(len(r.gens))].proxy
}

// action is one scheduled fault at a fixed offset into the run.
type action struct {
	at   time.Duration
	name string
	run  func()
}

// schedule plans the fault timeline from the seed and executes it. All
// offsets are fixed fractions of Duration so the same seed and duration
// produce the same schedule.
func (r *runner) schedule() {
	D := r.cfg.Duration
	rng := mrand.New(mrand.NewSource(r.cfg.Seed + 101))
	var plan []action

	// One latency window and one connection-drop window, each against a
	// seeded-choice replica.
	var faulted *FaultProxy
	plan = append(plan,
		action{at: D / 10, name: "latency fault on", run: func() {
			if faulted = r.pickProxy(rng); faulted != nil {
				faulted.SetLatency(10 * time.Millisecond)
				r.log.Record(EventFaultOn, "", "latency 10ms")
			}
		}},
		action{at: 3 * D / 10, name: "latency fault off", run: func() {
			if faulted != nil {
				faulted.SetLatency(0)
				r.log.Record(EventFaultOff, "", "latency")
			}
		}},
	)
	var dropped *FaultProxy
	plan = append(plan,
		action{at: 4 * D / 10, name: "drop fault on", run: func() {
			if dropped = r.pickProxy(rng); dropped != nil {
				dropped.SetDropEvery(5)
				r.log.Record(EventFaultOn, "", "drop every 5th connection")
			}
		}},
		action{at: 11 * D / 20, name: "drop fault off", run: func() {
			if dropped != nil {
				dropped.SetDropEvery(0)
				r.log.Record(EventFaultOff, "", "drop")
			}
		}},
	)

	// Kill+restart cycles spread across the middle of the run; each
	// restart is a new generation (new port, cold cache) that re-joins
	// through the same runtime protocol.
	restartDelay := D / 8
	for i := 0; i < r.cfg.Kills; i++ {
		at := D/5 + time.Duration(i)*(D/2)/time.Duration(maxInt(r.cfg.Kills, 1))
		slot := r.cfg.Replicas + i // informational: generation slot label
		plan = append(plan,
			action{at: at, name: "kill", run: func() {
				if g := r.pickVictim(rng); g != nil {
					r.log.Record(EventKill, g.url, g.name)
					r.kill(g)
				}
			}},
			action{at: at + restartDelay, name: "restart", run: func() {
				if g, err := r.startGen(slot); err == nil {
					r.log.Record(EventRestart, g.url, g.name)
				}
			}},
		)
	}

	// Extra runtime joins in the back half.
	for i := 0; i < r.cfg.Joins; i++ {
		at := 3*D/5 + time.Duration(i)*(D/4)/time.Duration(maxInt(r.cfg.Joins, 1))
		slot := 100 + i
		plan = append(plan, action{at: at, name: "join", run: func() {
			r.startGen(slot)
		}})
	}

	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	start := time.Now()
	for _, a := range plan {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		a.run()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// client is one traffic generator: a seeded mix of characterize reads,
// bursts of identical requests, and design-space sweeps, as fast as the
// cluster answers them.
func (r *runner) client(ctx context.Context, idx int) {
	rng := mrand.New(mrand.NewSource(r.cfg.Seed + int64(idx)*7919))
	for n := 0; ctx.Err() == nil; n++ {
		switch pick := rng.Intn(10); {
		case pick < 7:
			r.doCharacterize(ctx, rng, idx, n)
		case pick < 9:
			r.doBatch(ctx, rng)
		default:
			r.doExplore(ctx, rng)
		}
		time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
	}
}

func (r *runner) pickKey(rng *mrand.Rand) (workload, device string) {
	return r.cfg.Workloads[rng.Intn(len(r.cfg.Workloads))],
		r.cfg.Devices[rng.Intn(len(r.cfg.Devices))]
}

// fail records one violated request expectation.
func (r *runner) fail(kind, detail string) {
	r.failureCount.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 64 {
		r.failures = append(r.failures, Failure{Kind: kind, Detail: detail})
	}
}

func (r *runner) bump(kind string) {
	r.mu.Lock()
	r.byKind[kind]++
	r.mu.Unlock()
}

// doCharacterize issues one routed characterization. Every 16th request
// per client carries a deterministic X-Request-ID tag so the stitched
// trace can be pulled and validated at scenario end.
func (r *runner) doCharacterize(ctx context.Context, rng *mrand.Rand, cli, n int) {
	w, d := r.pickKey(rng)
	id := ""
	if n%16 == 0 {
		id = fmt.Sprintf("chaos-%d-c%d-%d", r.cfg.Seed, cli, n)
	}
	r.characterizeOnce(ctx, w, d, id)
}

// characterizeOnce is the shared request path for characterize and batch
// traffic.
func (r *runner) characterizeOnce(ctx context.Context, workload, device, id string) {
	body := fmt.Sprintf(`{"workload":%q,"device":%q}`, workload, device)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/characterize", strings.NewReader(body))
	if err != nil {
		r.fail("characterize", err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	r.requests.Add(1)
	resp, err := r.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.fail("characterize", err.Error())
		}
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		if ctx.Err() == nil {
			r.fail("characterize", "reading body: "+err.Error())
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.fail("characterize", fmt.Sprintf("%s|%s: status %d: %.200s", workload, device, resp.StatusCode, b))
		return
	}
	r.bump("characterize")
	switch resp.Header.Get("X-NSServe-Cache") {
	case "hit":
		r.bump("hit")
	case "miss":
		r.bump("miss")
	case "join":
		r.bump("join")
	}
	r.checkReport(workload+"\x00"+device, b)
	if id != "" {
		r.mu.Lock()
		r.recentIDs = append(r.recentIDs, id)
		if len(r.recentIDs) > 32 {
			r.recentIDs = r.recentIDs[len(r.recentIDs)-32:]
		}
		r.mu.Unlock()
	}
}

// doBatch fires a burst of four identical concurrent requests for one
// key. What it exercises is singleflight, not a batched pass: on the
// owning replica, requests that arrive while the key's run is in flight
// join that one flight and share its report bytes, and later ones hit
// the cache it filled.
func (r *runner) doBatch(ctx context.Context, rng *mrand.Rand) {
	w, d := r.pickKey(rng)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.characterizeOnce(ctx, w, d, "")
		}()
	}
	wg.Wait()
	r.bump("batch")
}

// doExplore streams one small sharded design-space sweep through the
// router and requires a complete stream: a summary chunk with no shard
// errors. Sweeps are serialized by a slot so replica explore-concurrency
// limits never shed one (a shed sweep would be a false failure).
func (r *runner) doExplore(ctx context.Context, rng *mrand.Rand) {
	select {
	case r.exploreSlot <- struct{}{}:
	default:
		r.doCharacterize(ctx, rng, 99, 1) // slot busy: fall back, untagged
		return
	}
	defer func() { <-r.exploreSlot }()
	w, d := r.pickKey(rng)
	body := fmt.Sprintf(`{"workload":%q,"device":%q,"space":{"mem_bw_gbs":{"min":100,"max":800,"steps":4,"log":true}}}`, w, d)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/explore", strings.NewReader(body))
	if err != nil {
		r.fail("explore", err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	r.requests.Add(1)
	resp, err := r.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.fail("explore", err.Error())
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		r.fail("explore", fmt.Sprintf("status %d: %.200s", resp.StatusCode, b))
		return
	}
	var summary *dse.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var c dse.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			r.fail("explore", fmt.Sprintf("bad chunk %.80q: %v", sc.Bytes(), err))
			return
		}
		if c.Type == "summary" {
			summary = c.Summary
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() == nil {
			r.fail("explore", "stream: "+err.Error())
		}
		return
	}
	switch {
	case summary == nil:
		if ctx.Err() == nil {
			r.fail("explore", "stream ended without a summary")
		}
	case len(summary.Errors) > 0:
		r.fail("explore", "shard errors: "+strings.Join(summary.Errors, "; "))
	default:
		r.bump("explore")
	}
}

// detReport is the deterministic subset of the report schema — structure,
// operation counts, and data-dependent statistics; everything except
// measured wall-clock time. Its fingerprint must be identical for a key
// no matter which replica generation computed it.
type detReport struct {
	Name     string          `json:"name"`
	Category string          `json:"category"`
	Memory   json.RawMessage `json:"memory"`
	Roofline []struct {
		Name string  `json:"name"`
		AI   float64 `json:"arithmetic_intensity"`
	} `json:"roofline"`
	Dataflow struct {
		Events           int `json:"events"`
		Edges            int `json:"edges"`
		Depth            int `json:"depth"`
		MaxWidth         int `json:"max_width"`
		NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
		SymbolicToNeural int `json:"symbolic_to_neural_edges"`
	} `json:"dataflow"`
}

// checkReport compares key's deterministic fingerprint against the first
// generation that answered for it.
func (r *runner) checkReport(key string, body []byte) {
	var det detReport
	if err := json.Unmarshal(body, &det); err != nil {
		r.fail("report-parse", err.Error())
		return
	}
	fp, err := json.Marshal(det)
	if err != nil {
		r.fail("report-parse", err.Error())
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.reports[key]; !ok {
		r.reports[key] = string(fp)
	} else if prev != string(fp) && !r.mismatched[key] {
		r.mismatched[key] = true
	}
}

// awaitLive polls the router's members listing until n replicas are in
// the ring (state "live") and the router reports ready.
func (r *runner) awaitLive(n int) error {
	type memberRow struct {
		State string `json:"state"`
	}
	type membersBody struct {
		Members []memberRow `json:"members"`
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		live := 0
		resp, err := r.http.Get(r.base + "/v1/cluster/members")
		if err == nil {
			var mb membersBody
			if json.NewDecoder(resp.Body).Decode(&mb) == nil {
				for _, m := range mb.Members {
					if m.State == "live" {
						live++
					}
				}
			}
			resp.Body.Close()
		}
		if live >= n {
			if resp, err := r.http.Get(r.base + "/readyz"); err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: cluster never reached %d live replicas", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// collect snapshots the traffic-side tallies into a Result.
func (r *runner) collect() *Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &Result{
		Requests:     r.requests.Load(),
		ByKind:       map[string]int64{},
		FailureCount: r.failureCount.Load(),
		Failures:     append([]Failure(nil), r.failures...),
		Generations:  r.genSeq,
		SLOBudgets:   map[string]float64{},
	}
	for k, v := range r.byKind {
		res.ByKind[k] = v
	}
	for key := range r.mismatched {
		res.KeyMismatches = append(res.KeyMismatches, key)
	}
	sort.Strings(res.KeyMismatches)
	return res
}

// finalChecks runs the end-of-run invariants that need the cluster still
// standing: readiness, SLO budgets, and stitched-trace validation.
func (r *runner) finalChecks(res *Result) {
	// The cluster must end the run ready (at least one live replica).
	if resp, err := r.http.Get(r.base + "/readyz"); err != nil {
		r.violation(res, "readyz unreachable: "+err.Error())
	} else {
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusOK {
			r.violation(res, fmt.Sprintf("readyz %d after scenario", code))
		} else {
			r.log.Record(EventCheck, "", "readyz ok")
		}
	}

	// SLO budgets: the faults must not have burned a full error budget.
	if resp, err := r.http.Get(r.base + "/v1/slo"); err != nil {
		r.violation(res, "slo unreachable: "+err.Error())
	} else {
		var rep slo.Report
		err := json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			r.violation(res, "slo decode: "+err.Error())
		} else {
			for _, o := range rep.Objectives {
				res.SLOBudgets[o.Name] = o.BudgetRemaining
				r.log.Record(EventCheck, "", fmt.Sprintf("slo %s budget_remaining=%.4f", o.Name, o.BudgetRemaining))
			}
		}
	}

	// Stitched traces: tagged requests must replay as well-formed Chrome
	// traces spanning router and replica processes.
	r.mu.Lock()
	ids := append([]string(nil), r.recentIDs...)
	r.mu.Unlock()
	for i := len(ids) - 1; i >= 0 && res.TracesValidated < 4; i-- {
		resp, err := r.http.Get(r.base + "/v1/trace?format=chrome&request_id=" + ids[i])
		if err != nil {
			continue
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue // aged out of a ring recorder; try an older tag
		}
		if _, err := trace.ValidateChrome(b); err != nil {
			r.violation(res, fmt.Sprintf("stitched trace %s invalid: %v", ids[i], err))
			continue
		}
		res.TracesValidated++
	}
	r.log.Record(EventCheck, "", fmt.Sprintf("stitched traces validated: %d", res.TracesValidated))
}

// violation records an invariant failure in both the result and the log.
func (r *runner) violation(res *Result, detail string) {
	res.FailureCount++
	if len(res.Failures) < 64 {
		res.Failures = append(res.Failures, Failure{Kind: "invariant", Detail: detail})
	}
	r.log.Record(EventViolation, "", detail)
}

// teardown stops everything still running; idempotent.
func (r *runner) teardown() {
	r.teardownOne.Do(func() {
		r.mu.Lock()
		gens := append([]*replicaGen(nil), r.gens...)
		r.mu.Unlock()
		for _, g := range gens {
			r.kill(g)
		}
		r.rt.Close()
		r.rsrv.Close()
	})
}
