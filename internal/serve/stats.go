package serve

import (
	"time"

	"github.com/neurosym/nsbench/internal/metrics"
)

// stats is a thin view over the server's metrics registry: one shared set
// of counters backs both the legacy /v1/stats JSON (this struct renders
// it) and the Prometheus /metrics exposition. Handlers and workers update
// the counters lock-free.
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
	runs       *metrics.Counter // characterizations actually executed
	runNanos   *metrics.Counter // total wall time spent executing runs

	// runSeconds is the latency distribution of the runs counted above —
	// the histogram form /metrics scrapes for quantiles.
	runSeconds *metrics.Histogram
	// inflight gauges the characterizations executing right now.
	inflight *metrics.Gauge

	// Coalescing (Config.BatchWindow > 0): batches counts engine passes
	// dispatched through the coalescer (including singletons — occupancy 1
	// means the window bought nothing), batchItems the requests those
	// passes served, occupancy their size distribution, and
	// coalesceFlushes why each group left its window (window, full, drain).
	batches         *metrics.Counter
	batchItems      *metrics.Counter
	occupancy       *metrics.Histogram
	coalesceFlushes *metrics.CounterVec

	// Design-space exploration (/v1/explore): sweeps completed and grid
	// points evaluated, exported as ns_explore_sweeps_total and
	// ns_explore_points_total.
	sweepsRun       *metrics.Counter
	pointsEvaluated *metrics.Counter

	// cacheFills counts reports installed by POST /v1/cache/fill — cache
	// entries this replica holds without ever computing them (the router's
	// replication fan-fill).
	cacheFills *metrics.Counter
}

// newStats registers the serving counters in reg.
func newStats(reg *metrics.Registry) stats {
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
		runs:       reg.Counter("nsserve_runs_total", "Characterizations actually executed."),
		runNanos:   reg.Counter("nsserve_run_nanos_total", "Total wall time spent executing characterizations, in nanoseconds."),
		runSeconds: reg.Histogram("nsserve_run_seconds", "Characterization execution latency.", metrics.LatencyBuckets()),
		inflight:   reg.Gauge("nsserve_inflight_runs", "Characterizations executing right now."),
		batches:    reg.Counter("nsserve_batches_total", "Engine passes dispatched through the request coalescer."),
		batchItems: reg.Counter("nsserve_batch_items_total", "Requests served by coalesced engine passes."),
		occupancy: reg.Histogram("nsserve_batch_occupancy", "Requests per coalesced engine pass.",
			[]float64{1, 2, 4, 8, 16, 32}),
		coalesceFlushes: reg.CounterVec("nsserve_coalesce_flushes_total",
			"Batch group flushes by outcome (window expired, group full, drain on close).", "outcome"),
		sweepsRun:       reg.Counter("ns_explore_sweeps_total", "Design-space sweeps completed."),
		pointsEvaluated: reg.Counter("ns_explore_points_total", "Design-space grid points evaluated."),
		cacheFills:      reg.Counter("nsserve_cache_fills_total", "Reports installed by the router's replication fan-fill."),
	}
}

// recordRun accounts one executed characterization. Nanos is added
// *before* the run counter so the (runs, runNanos) pair keeps the
// invariant snapshot relies on: every run visible in the counter already
// has its duration in the total.
func (s *stats) recordRun(d time.Duration) {
	s.runNanos.Add(uint64(d.Nanoseconds()))
	s.runSeconds.ObserveSeconds(d.Nanoseconds())
	s.runs.Inc()
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
	// BatchesRun counts engine passes dispatched through the request
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

// Add accumulates o into s, as a routing tier totals its replicas:
// counters and gauges sum, and the two means are recomputed from the
// sums — AvgRunNanos as RunNanos/Runs and AvgOccupancy as the
// batch-weighted mean — since a mean of means would weight an idle
// replica equally with a busy one.
func (s *Snapshot) Add(o Snapshot) {
	items := s.AvgOccupancy*float64(s.BatchesRun) + o.AvgOccupancy*float64(o.BatchesRun)
	s.Requests += o.Requests
	s.CacheHits += o.CacheHits
	s.CacheMiss += o.CacheMiss
	s.DedupJoins += o.DedupJoins
	s.Rejected += o.Rejected
	s.Timeouts += o.Timeouts
	s.Abandoned += o.Abandoned
	s.Failures += o.Failures
	s.Runs += o.Runs
	s.RunNanos += o.RunNanos
	s.CacheSize += o.CacheSize
	s.QueueDepth += o.QueueDepth
	s.BatchesRun += o.BatchesRun
	s.SweepsRun += o.SweepsRun
	s.PointsEvaluated += o.PointsEvaluated
	s.CacheFills += o.CacheFills
	s.AvgRunNanos, s.AvgOccupancy = 0, 0
	if s.Runs > 0 {
		s.AvgRunNanos = s.RunNanos / s.Runs
	}
	if s.BatchesRun > 0 {
		s.AvgOccupancy = items / float64(s.BatchesRun)
	}
}

// snapshot reads every counter once. Counters are read individually, so a
// snapshot taken under load is approximate — fine for monitoring — with
// one deliberate ordering: Runs is read *before* RunNanos while writers
// update nanos before runs (recordRun), so the nanos total always covers
// at least the runs counted and AvgRunNanos can only over-approximate
// (by the runs that completed between the two loads), never report an
// impossibly low average from a torn read.
func (s *stats) snapshot() Snapshot {
	runs := int64(s.runs.Value())
	nanos := int64(s.runNanos.Value())
	out := Snapshot{
		Requests:   int64(s.requests.Value()),
		CacheHits:  int64(s.cacheHits.Value()),
		CacheMiss:  int64(s.cacheMiss.Value()),
		DedupJoins: int64(s.dedupJoins.Value()),
		Rejected:   int64(s.rejected.Value()),
		Timeouts:   int64(s.timeouts.Value()),
		Abandoned:  int64(s.abandoned.Value()),
		Failures:   int64(s.failures.Value()),
		Runs:       runs,
		RunNanos:   nanos,
	}
	if out.Runs > 0 {
		out.AvgRunNanos = out.RunNanos / out.Runs
	}
	out.BatchesRun = int64(s.batches.Value())
	if out.BatchesRun > 0 {
		out.AvgOccupancy = float64(s.batchItems.Value()) / float64(out.BatchesRun)
	}
	out.SweepsRun = int64(s.sweepsRun.Value())
	out.PointsEvaluated = int64(s.pointsEvaluated.Value())
	out.CacheFills = int64(s.cacheFills.Value())
	return out
}
