package serve

import (
	"reflect"
	"time"

	"github.com/neurosym/nsbench/internal/metrics"
)

// stats holds the server's instruments, one per fact, all registered in
// the server's metrics registry: /metrics exposes them and /v1/stats
// (snapshot) reads the same ones. Handlers and workers update them
// lock-free.
type stats struct {
	requests   *metrics.Counter // characterize requests received
	cacheHits  *metrics.Counter // served straight from the LRU
	cacheMiss  *metrics.Counter // not in cache on arrival
	evictions  *metrics.Counter // reports evicted from a full LRU
	dedupJoins *metrics.Counter // requests that joined an in-flight run
	rejected   *metrics.Counter // 429s from a full admission queue
	timeouts   *metrics.Counter // waiters that gave up (deadline/cancel)
	abandoned  *metrics.Counter // queued runs dropped: every waiter had left
	failures   *metrics.Counter // characterizations that returned an error

	// runSeconds is the latency distribution of executed characterizations;
	// its count is the run count. runNanos is their exact total wall time
	// (the histogram's float sum in seconds is not exact nanoseconds).
	runSeconds *metrics.Histogram
	runNanos   *metrics.Counter
	// inflight gauges the characterizations executing right now.
	inflight *metrics.Gauge
	// cacheLen and queueLen back the nsserve_cache_entries and
	// nsserve_queue_depth gauges.
	cacheLen, queueLen func() int

	// Coalescing (Config.BatchWindow > 0): occupancy is the size of every
	// pass dispatched through the coalescer (including singletons —
	// occupancy 1 means the window bought nothing), so its count is the
	// passes and its sum the requests they served; coalesceFlushes counts
	// why each group left its window (window, full, drain).
	occupancy       *metrics.Histogram
	coalesceFlushes *metrics.CounterVec

	// Design-space exploration (/v1/explore).
	sweepsRun       *metrics.Counter
	pointsEvaluated *metrics.Counter
	shardsInFly     *metrics.Gauge     // sweep shards streaming right now
	pointsPerSec    *metrics.Gauge     // throughput of the last completed sweep
	frontSize       *metrics.Histogram // Pareto front size per completed sweep

	// cacheFills counts reports installed by POST /v1/cache/fill — cache
	// entries this replica holds without ever computing them (the router's
	// replication fan-fill).
	cacheFills *metrics.Counter
}

// newStats registers the serving instruments in reg; cacheLen and
// queueLen are read at scrape and snapshot time.
func newStats(reg *metrics.Registry, cacheLen, queueLen func() int) stats {
	reg.GaugeFunc("nsserve_queue_depth", "Characterizations waiting in the admission queue.",
		func() float64 { return float64(queueLen()) })
	reg.GaugeFunc("nsserve_cache_entries", "Reports currently held by the LRU cache.",
		func() float64 { return float64(cacheLen()) })
	return stats{
		requests:   reg.Counter("nsserve_requests_total", "Characterize requests received."),
		cacheHits:  reg.Counter("nsserve_cache_hits_total", "Requests served straight from the report cache."),
		cacheMiss:  reg.Counter("nsserve_cache_misses_total", "Requests that missed the report cache."),
		evictions:  reg.Counter("nsserve_cache_evictions_total", "Reports evicted from the full LRU cache."),
		dedupJoins: reg.Counter("nsserve_dedup_joins_total", "Requests that joined an identical in-flight run."),
		rejected:   reg.Counter("nsserve_rejected_total", "Requests rejected with 429 by the full admission queue."),
		timeouts:   reg.Counter("nsserve_timeouts_total", "Waiters that gave up on a run (deadline or disconnect)."),
		abandoned:  reg.Counter("nsserve_abandoned_total", "Queued runs dropped because every waiter had left."),
		failures:   reg.Counter("nsserve_failures_total", "Characterizations that returned an error."),
		runNanos:   reg.Counter("nsserve_run_nanos_total", "Total wall time spent executing characterizations, in nanoseconds."),
		runSeconds: reg.Histogram("nsserve_run_seconds", "Characterization execution latency.", metrics.LatencyBuckets()),
		inflight:   reg.Gauge("nsserve_inflight_runs", "Characterizations executing right now."),
		cacheLen:   cacheLen,
		queueLen:   queueLen,
		occupancy: reg.Histogram("nsserve_batch_occupancy", "Requests per coalesced pass.",
			[]float64{1, 2, 4, 8, 16, 32}),
		coalesceFlushes: reg.CounterVec("nsserve_coalesce_flushes_total",
			"Batch group flushes by outcome (window expired, group full, drain on close).", "outcome"),
		sweepsRun:       reg.Counter("ns_explore_sweeps_total", "Design-space sweeps completed."),
		pointsEvaluated: reg.Counter("ns_explore_points_total", "Design-space grid points evaluated."),
		shardsInFly:     reg.Gauge("ns_explore_shards_inflight", "Sweep shards streaming right now."),
		pointsPerSec: reg.Gauge("ns_explore_points_per_sec",
			"Evaluation throughput of the most recently completed sweep."),
		frontSize: reg.Histogram("ns_explore_front_size",
			"Pareto front size per completed sweep.", []float64{1, 2, 4, 8, 16, 32, 64}),
		cacheFills: reg.Counter("nsserve_cache_fills_total", "Reports installed by the router's replication fan-fill."),
	}
}

// recordRun accounts one executed characterization. Nanos is added
// *before* the run is observed, so every run the histogram counts
// already has its duration in the total (see snapshot).
func (s *stats) recordRun(d time.Duration) {
	s.runNanos.Add(uint64(d.Nanoseconds()))
	s.runSeconds.ObserveSeconds(d.Nanoseconds())
}

// Snapshot is the exported /v1/stats form.
type Snapshot struct {
	Requests   int64 `json:"requests"`
	CacheHits  int64 `json:"cache_hits"`
	CacheMiss  int64 `json:"cache_misses"`
	DedupJoins int64 `json:"dedup_joins"`
	Rejected   int64 `json:"rejected"`
	Timeouts   int64 `json:"timeouts"`
	Abandoned  int64 `json:"abandoned"`
	Failures   int64 `json:"failures"`
	Runs       int64 `json:"runs"`
	RunNanos   int64 `json:"run_nanos_total"`
	// AvgRunNanos is RunNanos/Runs (0 when no run completed yet).
	AvgRunNanos int64 `json:"avg_run_nanos"`
	// CacheSize and QueueDepth are point-in-time gauges.
	CacheSize  int `json:"cache_size"`
	QueueDepth int `json:"queue_depth"`
	// BatchesRun counts passes dispatched through the request
	// coalescer; AvgOccupancy is the mean requests served per such pass
	// (0 with coalescing disabled). Appended after the pre-batching
	// fields so existing consumers see an unchanged prefix.
	BatchesRun   int64   `json:"batches_run"`
	AvgOccupancy float64 `json:"avg_occupancy"`
	// SweepsRun and PointsEvaluated count /v1/explore activity. Appended
	// after the batching fields so existing consumers see an unchanged
	// prefix (the append-only evolution rule TestStatsJSONShape pins).
	SweepsRun       int64 `json:"sweeps_run"`
	PointsEvaluated int64 `json:"points_evaluated"`
	// CacheFills counts reports installed by the router's replication
	// fan-fill (POST /v1/cache/fill). Appended last per the append-only
	// evolution rule.
	CacheFills int64 `json:"cache_fills"`
}

// Add accumulates o into s, as a routing tier totals its replicas: every
// integer field (counters and gauges) sums, and the two means are
// recomputed — AvgRunNanos as RunNanos/Runs and AvgOccupancy as the
// batch-weighted mean of the two — since a mean of means would weight an
// idle replica equally with a busy one.
func (s *Snapshot) Add(o Snapshot) {
	sBatches, oBatches := s.BatchesRun, o.BatchesRun
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.CanInt() {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
	s.AvgRunNanos = 0
	if s.Runs > 0 {
		s.AvgRunNanos = s.RunNanos / s.Runs
	}
	// Weighting each mean by its share of the passes, rather than dividing
	// a summed item count, keeps the result between the two means: no
	// overflow to an infinity that JSON cannot encode.
	sMean := s.AvgOccupancy
	s.AvgOccupancy = 0
	if n := float64(s.BatchesRun); s.BatchesRun > 0 {
		s.AvgOccupancy = sMean*(float64(sBatches)/n) + o.AvgOccupancy*(float64(oBatches)/n)
	}
}

// snapshot reads every instrument once. Instruments are read
// individually, so a snapshot taken under load is approximate — fine for
// monitoring — with one deliberate ordering: Runs is read *before*
// RunNanos while writers add the nanos before they observe the run
// (recordRun), so AvgRunNanos can only over-approximate, never report an
// impossibly low average from a torn read. Occupancy observations are
// small integers, so the histogram's float sum is exact.
func (s *stats) snapshot() Snapshot {
	out := Snapshot{
		Requests:   int64(s.requests.Value()),
		CacheHits:  int64(s.cacheHits.Value()),
		CacheMiss:  int64(s.cacheMiss.Value()),
		DedupJoins: int64(s.dedupJoins.Value()),
		Rejected:   int64(s.rejected.Value()),
		Timeouts:   int64(s.timeouts.Value()),
		Abandoned:  int64(s.abandoned.Value()),
		Failures:   int64(s.failures.Value()),
		Runs:       int64(s.runSeconds.Count()),
		RunNanos:   int64(s.runNanos.Value()),
		CacheSize:  s.cacheLen(),
		QueueDepth: s.queueLen(),
		BatchesRun: int64(s.occupancy.Count()),

		SweepsRun:       int64(s.sweepsRun.Value()),
		PointsEvaluated: int64(s.pointsEvaluated.Value()),
		CacheFills:      int64(s.cacheFills.Value()),
	}
	if out.Runs > 0 {
		out.AvgRunNanos = out.RunNanos / out.Runs
	}
	if out.BatchesRun > 0 {
		out.AvgOccupancy = s.occupancy.Sum() / float64(out.BatchesRun)
	}
	return out
}
