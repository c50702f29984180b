// Command e2ebench is the repository's end-to-end serving benchmark. It
// follows a characterization request through nsrouter (internal/cluster),
// a replica's admission queue and coalescer (internal/serve), the engine
// and its kernels (internal/core, internal/ops, internal/workloads,
// internal/tensor) to the encoded response, and splits the request's time
// by layer — the paper's phase and operator breakdown (Fig. 2a/3a)
// applied to the serving stack.
//
// # Running
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the benchmark from source under .bench_build and runs it.
// The benchmark is its own Go module (it imports the repository's
// internal packages through a replace directive), so the repository's
// `go test ./...` does not include it; its own tests run with
// `cd e2ebench && go test ./...`.
//
// Each run prints two JSON lines. The first is the run's record: seed,
// Go version, GOMAXPROCS, the full stack configuration, the load shape,
// every setup time, the sent/succeeded/failed/refused/unanswered counts
// and each workload class's share of the requests, per window, the host
// sentinel before and after, and the first few errors. The last line is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones below; with --trace 1
// they are the per-layer ones. The command exits non-zero when any
// request failed, was refused, went unanswered, or returned a report that
// differs from the reference.
//
// # Stack under test
//
// One router and two replicas, all in the benchmark's process behind
// loopback listeners, the way internal/chaos stands a cluster up, with the
// load generated from the same process:
//
//   - replicas: cmd/nsserve's shipped defaults — parallel backend with
//     GOMAXPROCS workers, two characterization workers, 2 ms coalescing
//     window, report cache of 128 — except that the miss workloads disable
//     the cache (CacheSize -1);
//   - request logging: both tiers log every request in the binaries'
//     default text format, as they do without -quiet; the lines are
//     formatted and written to io.Discard;
//   - router: cmd/nsrouter's defaults with a static replica list. Static
//     replicas enter the ring inside cluster.New; a runtime join would wait
//     for two 2 s health probes, and the wait would land in setup_s;
//   - replica URLs are fixed names (http://replica-a, http://replica-b)
//     that the benchmark resolves to the current listeners. The ring
//     hashes the URL, so ephemeral ports would reshuffle key ownership from
//     run to run;
//   - the load generator is a closed loop of one or two clients, each on
//     its own connection: a client sends its next request when its
//     previous one has been answered and checked. The reference host is a
//     two-vCPU x86 VM, so two connections is the most it uses.
//
// # Workloads
//
// A key is one workload×device pair; every workload class is requested on
// each of the four devices in hwsim.AllDevices.
//
// hit-zipf: closed loop, two clients, over the 32 keys of the eight
// workloads that take under 200 ms per miss (all but NVSA, PrAE and
// VSAIT); setup cold-fills each key once through the router. Every
// measured request is a cache hit: the front door — the router's proxying
// plus the replica's decode, canonicalize, LRU probe, request log and
// write — does all the work and the engine none. This is the workload for
// a single front door and for per-layer exemplars; engine work should
// leave it unchanged. Two clients keep both vCPUs busy, so throughput is
// the front door's capacity on the host and latency its service time
// with one other request in flight (on the reference host about 7000
// requests/s, 0.24 ms p50, 0.26 ms of process CPU per request).
//
// Its key mix is a choice, not observed traffic. Popularity is Zipf with
// exponent 0.99, YCSB's default (Cooper et al., "Benchmarking Cloud
// Serving Systems with YCSB", SoCC 2010). As in YCSB's scrambled Zipfian
// generator, popularity rank is decoupled from key order by hashing: rank
// follows the FNV-1a hash of "<workload>|<device>", so neither the class
// list nor the seed decides which key is hot. Every block of about a
// thousand requests holds each key in proportion to 1/rank^0.99 (at least
// once), in seeded order, so every seed offers the same mix. The record
// line gives each class's share of the requests; ZeroC's four keys draw
// about 30%, GNN+attention's about 4%. Cached reports are 1.4–2.1 KB
// whatever the class, so the mix moves the hit path's cost little.
//
// hit-zipf was first an open loop at 500 Poisson arrivals per second,
// timed from each request's due time. On the two-vCPU VM its sub-millisecond
// latency followed the host rather than the program: between arrivals
// both vCPUs went idle, and every request paid the wake-ups of the
// dispatcher, the client, the router and the replica. Across two sets of
// ten 45 s runs of identical code its p50 median moved from 0.79 to
// 1.31 ms and its p90 spread reached 0.85, while CPU per request moved 2%.
// A closed loop with one client still left one vCPU idle much of the
// time: between two sets its throughput median moved 25% and its p90
// 35%, following the hypervisor's CPU steal (under 3% of the VM's time
// in one set, 3–19% in the other). In eight alternating pairs of 20 s
// runs, two clients held p90 within 0.29–0.35 ms against 0.33–0.44 ms
// for one client, and drew less steal. Two clients still follow the
// host: a run taken while the hypervisor steals 16% of the VM's time
// loses a fifth to a quarter of its throughput, and symbolic-closed
// suffers as much (see Steadiness rules).
//
// symbolic-closed: closed loop, one client, replica caches disabled, a
// seeded order over NVSA, PrAE and VSAIT on the four devices. Every
// request takes the write side of the serve layer that hit-zipf never
// touches — singleflight, admission queue, batch window, worker, report
// encode — and its engine time is mostly the symbolic phase: NVSA's
// codebook GEMV, PrAE's gathers, VSAIT's circular convolution; each
// workload's small neural phase runs the tiled conv/GEMM kernels. The
// front door is a negligible share. One client cannot build a queue, so
// latency is service time and throughput is its inverse.
//
// The symbolic phase is not most of the request, though. On the reference
// host the untraced runs put the median request at 300–310 ms and the
// traced runs its symbolic phase at 122–175 ms: 40–45% of it. The rest is analysis of the
// finished trace (core.Analyze: cache simulation, roofline, dataflow
// graph; about 150–240 ms per class, mean over classes), building the
// workload (55–80 ms mean, NVSA about 170 ms) and time inside the run
// that no span covers. A symbolic-kernel gain therefore shows in
// latency_p50_ms and throughput_rps at well under half its size: halving
// the symbolic phase should cut the median request by about a fifth.
//
// Dropped for unsteadiness: neural-miss, an open loop at 5 requests/s over
// NeuralBaseline and AlphaGo with caches off, meant as the workload whose
// conv/GEMM time must not move when symbolic kernels change. Over four
// sets of ten 30 s runs of identical code its latency spread (interquartile
// range over median) was 0.09–0.36 for p50 and 0.10–0.38 for p90, above
// the largest allowed bound of 0.25 in two sets. In one of those its CPU
// per request spread only 0.05 while p90 spread 0.31: two overlapping
// misses on two vCPUs turn the VM's CPU-steal phases (the hypervisor
// took up to a quarter of the run time) into queueing. The serve write
// path and the neural kernels stay measured on symbolic-closed.
//
// Left out: a design-space sweep workload (the least steady in earlier
// attempts, no open item targets internal/dse, and internal/chaos already
// checks its correctness) and a capacity rate search (its result moves in
// steps of the rate grid and it doubles run time; symbolic-closed's
// throughput already gives the engine path's capacity).
//
// The seed fixes each run's whole schedule before the run starts: the key
// sequence and which requests the traced run samples. Keys come as seeded
// permutations of a block that holds the workload's mix exactly (every
// key once on symbolic-closed, the Zipf quotas on hit-zipf), so every
// seed offers the same mix and any prefix of the schedule is within one
// block of it. A run faster than the schedule was sized for starts it
// over.
//
// # End-to-end metrics
//
// Measured with tracing off, over the measured window (from its start to
// the last answer):
//
//   - setup_s (s): from the start of stack construction to the start of
//     the measured window, warm-up included (hit-zipf's cold fill, or one
//     discarded request per workload class). A run sets up five times and
//     reports the median; the last stack serves the windows.
//   - latency_p50_ms, latency_p90_ms (ms): succeeded requests, from send to
//     the last byte of the body.
//   - throughput_rps (1/s): succeeded responses per measured second.
//   - slo_ok_ratio (ratio): requests that succeeded within the workload's
//     latency limit (hit-zipf 50 ms, symbolic-closed 5 s), over requests
//     attempted. Failed, refused and unanswered requests count as misses.
//   - cpu_ms_per_req (ms): process user+system CPU over the window, per
//     completed request.
//   - alloc_kb_per_req (KiB): runtime.MemStats.TotalAlloc delta per
//     completed request.
//   - heap_live_mb (MiB): HeapAlloc after two forced GCs at the end of the
//     window (the second drops sync.Pool caches). The generator's
//     per-request records are summarized and dropped first, so the figure
//     does not grow with the number of requests completed; it includes the
//     fixed-size schedule (8 bytes a request).
//
// Because the whole stack and the generator share one process, CPU and
// allocation figures include the generator's own small share.
//
// Every response is checked: its deterministic subset — name, category,
// memory, roofline arithmetic intensity and dataflow counts, the fields
// internal/chaos fingerprints — must equal the reference from an
// in-process core.Characterize of the same key computed before setup. A
// cache hit byte-identical to a body already checked for its key passes
// without a second decode. A mismatch or a non-200 fails the request. The
// window stops sending at its end; a request still unanswered 2 s plus
// twice the latency limit later counts as failed.
//
// # Per-layer metrics
//
// --trace 1 runs the untraced window and then a traced window of the same
// schedule and length on the same stack. In the traced window the
// benchmark fetches GET /v1/trace?request_id=…&format=json from the router
// right after each sampled response (every request on symbolic-closed,
// one in twenty on hit-zipf). Request IDs are
// minted by the benchmark and kept by the router. A span's self time is
// its duration minus the part of it other spans of the same process
// cover. /v1/stats and each replica's /metrics are read before and after
// the traced window. Nothing here adds a span, counter or option to the
// program: everything is measured from outside it.
//
//	layer    metric                                measured from                                  should move, on
//	loadgen  loadgen.sent, .ok, .failed, .refused  own counters                                   validity of every metric
//	host     host.calib_cpu_ms, .calib_mem_ms      fixed compute loop, 64 MiB streaming loop,      diagnostic only; never used to rescale
//	                                               before and after the run (mean of the two)
//	cluster  cluster.route_self_ms                 route.characterize self time                   latency_p50_ms, cpu_ms_per_req on hit-zipf
//	         cluster.proxy_overhead_ms             proxy(<node>) − replica serve.characterize     latency_p50_ms on hit-zipf
//	         cluster.attempts_per_req              proxy spans per request ID                     latency_p90_ms everywhere
//	         cluster.owner_share_max               per-node requests, router /v1/stats            latency_p90_ms on hit-zipf
//	serve    serve.decode_us                       timed JSON decode + serve.Canonicalize         latency_p50_ms, cpu_ms_per_req on hit-zipf
//	         serve.handler_self_ms                 serve.characterize self time                   latency_p50_ms on hit-zipf; on misses it
//	                                                                                              holds workload build and report analysis
//	         serve.cache_probe_us                  cache.probe(*) span                            latency_p50_ms on hit-zipf
//	         serve.cache_hit_ratio                 /v1/stats hits / (hits + misses)               must be 1 on hit-zipf, 0 on symbolic-closed
//	         serve.queue_wait_ms, .queue_wait_p90_ms  queue.wait span                             latency_p50_ms on symbolic-closed
//	         serve.batch_window_ms                 batch.window span                              latency_p50_ms on symbolic-closed
//	         serve.batch_occupancy                 /v1/stats avg_occupancy × batches_run deltas   1 with one client; diagnostic
//	         serve.run_ms                          /v1/stats run_nanos_total / runs deltas        latency, throughput_rps on symbolic-closed
//	         serve.dedup_joins                     /v1/stats dedup_joins delta                    0 with one client; diagnostic
//	         serve.rejected                        /v1/stats rejected + timeouts delta            slo_ok_ratio everywhere
//	core     core.build_ms                         timed core.BuildWorkload                       throughput_rps on symbolic-closed
//	         core.characterize_ms                  timed core.Characterize (run + analysis)       throughput_rps on symbolic-closed
//	         core.analyze_ms                       timed core.Analyze of the same trace           throughput_rps on symbolic-closed
//	         core.encode_ms                        timed report JSON marshal                      cpu_ms_per_req on symbolic-closed
//	engine   engine.neural_ms, .symbolic_ms        each response's neural_ns, symbolic_ns         symbolic: latency on symbolic-closed;
//	                                               (median; a cache hit counts zero)              neural: latency_p50_ms on symbolic-closed
//	         engine.events_per_req                 each response's dataflow.events (mean)         cpu_ms_per_req on symbolic-closed
//	         engine.alloc_mb_per_req               each response's memory allocs (mean)           alloc_kb_per_req on symbolic-closed
//	kernel   kernel.symbolic.matmul_ms,            response category_share × phase time (mean)    throughput_rps on symbolic-closed (NVSA GEMV,
//	         .vector_eltwise_ms, .data_transform_ms                                               VSAIT circular convolution, PrAE gathers)
//	         kernel.neural.convolution_ms,                                                        latency_p50_ms on symbolic-closed
//	         kernel.neural.matmul_ms
//	backend  backend.chunks_dispatched_per_req,    ns_pool_chunks_{dispatched,inline}_total       cpu_ms_per_req on symbolic-closed
//	         backend.chunks_inline_per_req         deltas on replica /metrics
//	runtime  runtime.gc_cycles_per_req             runtime.MemStats NumGC delta                   throughput_rps, alloc_kb_per_req on
//	         runtime.gc_cpu_share                  runtime/metrics GC CPU over total CPU          symbolic-closed
//	trace    trace.coverage                        sampled IDs whose stitched trace has route,    validity of the per-layer numbers
//	                                               proxy and serve.characterize spans
//	         trace.overhead_p50_ms                 traced p50 − untraced p50                      validity of the per-layer numbers
//
// The core timings are taken in process after the traced window, one call
// per workload class on the first device, and averaged over classes.
// core.analyze_ms is not in the original layer list: on the two-vCPU VM
// core.Analyze (cache simulation, roofline, dataflow graph) and workload
// construction are a large share of a symbolic miss, and the traced run
// would otherwise leave that time unattributed.
//
// # Steadiness rules
//
// These come from earlier attempts at this benchmark and from measurements
// on a two-core host. Keep them unless new evidence says otherwise.
//
//   - Host speed drifts by several percent over tens of seconds, and
//     process CPU time follows wall time, so CPU time does not cancel host
//     phases. The host sentinel records the phase a run was taken in; it is
//     never used to rescale.
//   - Keep each percentile inside one latency mode. The three-way symbolic
//     mix puts p50 inside PrAE's mode and p90 inside NVSA's. Never mix
//     millisecond requests with second-long ones.
//   - The VM's hypervisor steals a varying share of CPU time, in phases
//     that last minutes: under 1% in calm phases, 15–23% of a whole run
//     in busy ones. In such a run hit-zipf loses a fifth to a quarter of
//     its throughput and symbolic-closed's p50 rose by up to 75%, while the
//     host sentinel's compute loop hardly moved. Open-loop misses that
//     overlap on the two cores turn steal into queueing, which is why
//     neural-miss was dropped. An open loop with idle gaps also charges
//     every request the vCPUs' wake-ups, which is why hit-zipf became a
//     closed loop, and a loop that leaves a vCPU idle pays them too, which
//     is why it has two clients. Bring back an open-loop workload only
//     with new evidence that its spread fits its bound, and with send lag
//     (send time − due time) reported beside it.
//   - Keep each slo_ok_ratio limit well clear of the pilot distribution: a
//     limit between two modes just counts the mix, and a limit at the edge
//     of a mode flips with host speed.
//   - Keep setup_s free of sleeps and poll intervals, and key placement
//     identical from run to run.
//   - Do not bring back a design-space sweep workload or a mode-splitting
//     latency limit without new measurements.
//   - Fix the whole schedule from the seed, with the offered load and the
//     class mix independent of the seed, so seeds differ only in order.
//
// A symbolic-closed run completes 80 to 91 requests in a 45 s window in a
// calm host phase (58 in the worst steal phase seen), so its p90 has eight
// or nine samples beyond it rather than ten; a longer window does not fit
// the time the benchmark's full set of runs is allowed.
package main
