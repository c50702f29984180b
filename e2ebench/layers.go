package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/trace"
)

// traceSplit is one stitched trace divided among the layers that
// recorded it.
type traceSplit struct {
	// covered: the trace holds the router's route and proxy spans and a
	// replica's serve.characterize span.
	covered                                      bool
	attempts                                     int
	routeSelf, proxyOverhead, handlerSelf, probe time.Duration
	queueWait, batchWindow                       time.Duration
	hasProbe, hasQueueWait, hasBatchWindow       bool
}

// selfTime is a span's duration minus the part of its interval that the
// given spans cover.
func selfTime(parent trace.WireSpan, others []trace.WireSpan) time.Duration {
	ps, pe := parent.StartUnixNs, parent.StartUnixNs+parent.DurNs
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range others {
		s, e := max(c.StartUnixNs, ps), min(c.StartUnixNs+c.DurNs, pe)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, end int64 = 0, ps
	for _, v := range ivs {
		if v.s > end {
			end = v.s
		}
		if v.e > end {
			covered += v.e - end
			end = v.e
		}
	}
	return time.Duration(parent.DurNs - covered)
}

// splitTrace reads the router's /v1/trace?format=json answer: one
// RequestTrace per process, the router's first.
func splitTrace(b []byte) *traceSplit {
	var procs []trace.RequestTrace
	out := &traceSplit{}
	if err := json.Unmarshal(b, &procs); err != nil {
		return out
	}
	var route, lastProxy, handler *trace.WireSpan
	var routerOthers, replicaOthers []trace.WireSpan
	for pi := range procs {
		p := &procs[pi]
		if p.Node == "router" {
			for i := range p.Spans {
				sp := &p.Spans[i]
				switch {
				case sp.Name == "route.characterize":
					route = sp
					continue
				case strings.HasPrefix(sp.Name, "proxy("):
					out.attempts++
					if lastProxy == nil || sp.StartUnixNs > lastProxy.StartUnixNs {
						lastProxy = sp
					}
				}
				routerOthers = append(routerOthers, *sp)
			}
			continue
		}
		var h *trace.WireSpan
		var others []trace.WireSpan
		for i := range p.Spans {
			sp := &p.Spans[i]
			switch {
			case sp.Name == "serve.characterize":
				h = sp
				continue
			case strings.HasPrefix(sp.Name, "cache.probe("):
				out.probe, out.hasProbe = time.Duration(sp.DurNs), true
			case sp.Name == "queue.wait":
				out.queueWait, out.hasQueueWait = time.Duration(sp.DurNs), true
			case sp.Name == "batch.window":
				out.batchWindow, out.hasBatchWindow = time.Duration(sp.DurNs), true
			}
			others = append(others, *sp)
		}
		// A retried request reaches several replicas; the handler that
		// answered is the one that started last.
		if h != nil && (handler == nil || h.StartUnixNs > handler.StartUnixNs) {
			handler, replicaOthers = h, others
		}
	}
	if route == nil || lastProxy == nil || handler == nil {
		return out
	}
	out.covered = true
	out.routeSelf = selfTime(*route, routerOthers)
	out.proxyOverhead = time.Duration(lastProxy.DurNs - handler.DurNs)
	out.handlerSelf = selfTime(*handler, replicaOthers)
	return out
}

// counters is one snapshot of the stack's own accounting: the router's
// aggregated /v1/stats (per-replica snapshots included) and each
// replica's backend pool counters from /metrics.
type counters struct {
	nodes      map[string]serve.Snapshot
	dispatched float64
	inline     float64
}

var statsClient = &http.Client{Timeout: 10 * time.Second}

func getBody(url string) ([]byte, error) {
	resp, err := statsClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func readCounters(st *stack) (counters, error) {
	c := counters{nodes: map[string]serve.Snapshot{}}
	b, err := getBody(st.routerURL + "/v1/stats")
	if err != nil {
		return c, err
	}
	var cs cluster.ClusterStats
	if err := json.Unmarshal(b, &cs); err != nil {
		return c, fmt.Errorf("decoding router stats: %w", err)
	}
	for _, n := range cs.Nodes {
		if n.Err != "" {
			return c, fmt.Errorf("router stats for %s: %s", n.Node, n.Err)
		}
		c.nodes[n.Node] = n.Stats
	}
	for _, u := range st.replicaURLs {
		b, err := getBody(u + "/metrics")
		if err != nil {
			return c, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			name, val, found := strings.Cut(sc.Text(), " ")
			if !found {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch name {
			case "ns_pool_chunks_dispatched_total":
				c.dispatched += v
			case "ns_pool_chunks_inline_total":
				c.inline += v
			}
		}
	}
	return c, nil
}

// statsDelta is what the stack counted during one window.
type statsDelta struct {
	requests, hits, misses, dedup, rejected, runs int64
	runNanos, batches                             int64
	batchItems, dispatched, inline                float64
	ownerShareMax                                 float64
}

func diffCounters(a, b counters) statsDelta {
	var d statsDelta
	var maxReq int64
	for node, s := range b.nodes {
		p := a.nodes[node]
		req := s.Requests - p.Requests
		d.requests += req
		maxReq = max(maxReq, req)
		d.hits += s.CacheHits - p.CacheHits
		d.misses += s.CacheMiss - p.CacheMiss
		d.dedup += s.DedupJoins - p.DedupJoins
		d.rejected += s.Rejected + s.Timeouts - p.Rejected - p.Timeouts
		d.runs += s.Runs - p.Runs
		d.runNanos += s.RunNanos - p.RunNanos
		d.batches += s.BatchesRun - p.BatchesRun
		// /v1/stats reports the mean occupancy; items = mean × batches.
		d.batchItems += s.AvgOccupancy*float64(s.BatchesRun) - p.AvgOccupancy*float64(p.BatchesRun)
	}
	d.dispatched = b.dispatched - a.dispatched
	d.inline = b.inline - a.inline
	if d.requests > 0 {
		d.ownerShareMax = float64(maxReq) / float64(d.requests)
	}
	return d
}

// decodeMicros times the replica's request decoding — JSON decode plus
// serve.Canonicalize — over the workload's request bodies, in process.
func decodeMicros(bodies [][]byte) (float64, error) {
	const rounds = 200
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range bodies {
			var req serve.Request
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
				return 0, err
			}
			if _, _, err := serve.Canonicalize(req); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(rounds*len(bodies)), nil
}

// coreTiming is one class's in-process pass through the core layer.
type coreTiming struct {
	build, characterize, analyze, encode time.Duration
}

// characterizeTimed times the calls a replica makes for one miss:
// core.BuildWorkload, core.Characterize and the report's JSON encoding,
// plus a second core.Analyze of the finished trace to split analysis
// from execution.
func characterizeTimed(name string, dev hwsim.Device, pool *ops.Pool) (coreTiming, error) {
	var t coreTiming
	t0 := time.Now()
	wl, err := core.BuildWorkload(name)
	if err != nil {
		return t, err
	}
	defer core.CloseWorkload(wl)
	t1 := time.Now()
	rep, err := core.Characterize(wl, core.Options{Device: dev, Pool: pool})
	if err != nil {
		return t, err
	}
	t2 := time.Now()
	core.Analyze(rep.Name, rep.Category, rep.Trace, core.Options{Device: dev})
	t3 := time.Now()
	if _, err := json.Marshal(rep); err != nil {
		return t, err
	}
	t4 := time.Now()
	return coreTiming{build: t1.Sub(t0), characterize: t2.Sub(t1), analyze: t3.Sub(t2), encode: t4.Sub(t3)}, nil
}

// layerMetrics fills the per-layer metrics of a traced window tm; plain
// is the untraced window of the same run, d what the stack counted
// during tm.
func layerMetrics(out map[string]metric, w *workload, ks []key, pool *ops.Pool, plain, tm *measured, d statsDelta) error {
	n := tm.completed()
	out["loadgen.sent"] = metric{float64(tm.c.Sent), "count"}
	out["loadgen.ok"] = metric{float64(tm.c.Succeeded), "count"}
	out["loadgen.failed"] = metric{float64(tm.c.Failed + tm.c.Unanswered), "count"}
	out["loadgen.refused"] = metric{float64(tm.c.Refused), "count"}

	var routeSelf, proxyOv, handlerSelf, probe, queueWait, batchWindow, attempts []float64
	sampled, covered := 0, 0
	var neural, symbolic, events, alloc []float64
	kernels := map[string][]float64{}
	for i, s := range tm.win.samples {
		det := tm.win.details[i]
		if det == nil {
			det = &detail{}
		}
		if t := det.trace; t != nil {
			sampled++
			if t.covered {
				covered++
				routeSelf = append(routeSelf, ms(t.routeSelf))
				proxyOv = append(proxyOv, ms(t.proxyOverhead))
				handlerSelf = append(handlerSelf, ms(t.handlerSelf))
				attempts = append(attempts, float64(t.attempts))
			}
			if t.hasProbe {
				probe = append(probe, ms(t.probe)*1e3)
			}
			if t.hasQueueWait {
				queueWait = append(queueWait, ms(t.queueWait))
			}
			if t.hasBatchWindow {
				batchWindow = append(batchWindow, ms(t.batchWindow))
			}
		}
		if s.outcome != ok {
			continue
		}
		// A cache hit runs no engine: its report was computed in setup.
		var r served
		if !s.hit && det.report != nil {
			r = *det.report
		}
		neural = append(neural, float64(r.NeuralNs)/1e6)
		symbolic = append(symbolic, float64(r.SymbolicNs)/1e6)
		events = append(events, float64(r.Dataflow.Events))
		alloc = append(alloc, float64(r.Mem.NeuralAlloc+r.Mem.SymbolicAlloc)/(1<<20))
		for _, k := range kernelShares {
			phaseNs := r.NeuralNs
			if k.phase == "symbolic" {
				phaseNs = r.SymbolicNs
			}
			kernels[k.name] = append(kernels[k.name], r.CategoryShare[k.phase][k.category]*float64(phaseNs)/1e6)
		}
	}
	sort.Float64s(queueWait)
	out["cluster.route_self_ms"] = metric{median(routeSelf), "ms"}
	out["cluster.proxy_overhead_ms"] = metric{median(proxyOv), "ms"}
	out["cluster.attempts_per_req"] = metric{mean(attempts), "count"}
	out["cluster.owner_share_max"] = metric{d.ownerShareMax, "ratio"}

	decode, err := decodeMicros(requestBodies(ks))
	if err != nil {
		return err
	}
	out["serve.decode_us"] = metric{decode, "us"}
	out["serve.handler_self_ms"] = metric{median(handlerSelf), "ms"}
	out["serve.cache_probe_us"] = metric{median(probe), "us"}
	out["serve.cache_hit_ratio"] = metric{ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio"}
	out["serve.queue_wait_ms"] = metric{quantile(queueWait, 0.5), "ms"}
	out["serve.queue_wait_p90_ms"] = metric{quantile(queueWait, 0.9), "ms"}
	out["serve.batch_window_ms"] = metric{median(batchWindow), "ms"}
	out["serve.batch_occupancy"] = metric{ratio(d.batchItems, float64(d.batches)), "count"}
	out["serve.run_ms"] = metric{ratio(float64(d.runNanos), float64(d.runs)) / 1e6, "ms"}
	out["serve.dedup_joins"] = metric{float64(d.dedup), "count"}
	out["serve.rejected"] = metric{float64(d.rejected), "count"}

	dev, err := hwsim.DeviceByName(ks[0].Device)
	if err != nil {
		return err
	}
	var build, char, analyze, encode []float64
	for _, c := range w.classes {
		t, err := characterizeTimed(c, dev, pool)
		if err != nil {
			return err
		}
		build = append(build, ms(t.build))
		char = append(char, ms(t.characterize))
		analyze = append(analyze, ms(t.analyze))
		encode = append(encode, ms(t.encode))
	}
	out["core.build_ms"] = metric{mean(build), "ms"}
	out["core.characterize_ms"] = metric{mean(char), "ms"}
	out["core.analyze_ms"] = metric{mean(analyze), "ms"}
	out["core.encode_ms"] = metric{mean(encode), "ms"}

	out["engine.neural_ms"] = metric{median(neural), "ms"}
	out["engine.symbolic_ms"] = metric{median(symbolic), "ms"}
	out["engine.events_per_req"] = metric{mean(events), "count"}
	out["engine.alloc_mb_per_req"] = metric{mean(alloc), "MiB"}
	for _, k := range kernelShares {
		out[k.name] = metric{mean(kernels[k.name]), "ms"}
	}

	out["backend.chunks_dispatched_per_req"] = metric{d.dispatched / n, "count"}
	out["backend.chunks_inline_per_req"] = metric{d.inline / n, "count"}

	out["runtime.gc_cycles_per_req"] = metric{float64(tm.p1.numGC-tm.p0.numGC) / n, "count"}
	out["runtime.gc_cpu_share"] = metric{ratio(tm.p1.gcCPU-tm.p0.gcCPU, tm.p1.allCPU-tm.p0.allCPU), "ratio"}

	out["trace.coverage"] = metric{ratio(float64(covered), float64(sampled)), "ratio"}
	out["trace.overhead_p50_ms"] = metric{tm.p50 - plain.p50, "ms"}
	return nil
}

// kernelShares are the operator categories the kernel layer reports:
// each response's category share times its phase time.
var kernelShares = []struct{ name, phase, category string }{
	{"kernel.symbolic.matmul_ms", "symbolic", "MatMul"},
	{"kernel.symbolic.vector_eltwise_ms", "symbolic", "Vector/Eltwise"},
	{"kernel.symbolic.data_transform_ms", "symbolic", "DataTransform"},
	{"kernel.neural.convolution_ms", "neural", "Convolution"},
	{"kernel.neural.matmul_ms", "neural", "MatMul"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
