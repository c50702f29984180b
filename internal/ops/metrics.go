package ops

import (
	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/trace"
)

// RegisterPoolMetrics publishes p's execution-backend statistics into
// reg: the dispatch width always, plus the live worker-pool gauges and
// counters when the backend reports them (the parallel backend does).
// Func-backed metrics sample the pool at scrape time, so registration
// itself adds no cost to the kernel hot path.
func RegisterPoolMetrics(reg *metrics.Registry, p *Pool) {
	be := p.Backend()
	reg.GaugeFunc("ns_backend_workers", "Execution backend dispatch width.",
		func() float64 { return float64(be.Workers()) })
	sr, ok := be.(backend.StatsReporter)
	if !ok {
		return
	}
	reg.GaugeFunc("ns_pool_busy_workers", "Pool workers currently executing a kernel chunk.",
		func() float64 { return float64(sr.Stats().BusyWorkers) })
	reg.CounterFunc("ns_pool_splits_total", "Kernel dispatches wide enough to split across the pool.",
		func() uint64 { return sr.Stats().Splits })
	reg.CounterFunc("ns_pool_chunks_dispatched_total", "Kernel chunks handed to pool workers.",
		func() uint64 { return sr.Stats().ChunksDispatched })
	reg.CounterFunc("ns_pool_chunks_inline_total", "Fallback kernel chunks run inline because the pool was saturated or closed.",
		func() uint64 { return sr.Stats().ChunksInline })
}

// NewOpObserver returns a trace.Observer that streams per-operator wall
// time into reg as the ns_op_seconds histogram, labeled with the paper's
// taxonomy category and the neural/symbolic phase — the live form of the
// Fig. 3a operator breakdown. Children are resolved up front, so the
// per-event cost is two array indexes and one histogram observation; the
// observer is safe for concurrent use by the engines of one pool.
func NewOpObserver(reg *metrics.Registry) trace.Observer {
	hv := reg.HistogramVec("ns_op_seconds",
		"Per-operator wall time by taxonomy category and workload phase.",
		metrics.OpBuckets(), "category", "phase")
	cats := trace.Categories()
	phases := trace.Phases()
	table := make([][]*metrics.Histogram, len(cats))
	for _, c := range cats {
		row := make([]*metrics.Histogram, len(phases))
		for _, p := range phases {
			row[int(p)] = hv.With(c.String(), p.String())
		}
		table[int(c)] = row
	}
	return func(ev *trace.Event) {
		c, p := int(ev.Category), int(ev.Phase)
		if c < 0 || c >= len(table) || p < 0 || p >= len(table[c]) {
			// Out-of-taxonomy events still get counted, just through the
			// slower interning path.
			hv.With(ev.Category.String(), ev.Phase.String()).ObserveSeconds(int64(ev.Dur))
			return
		}
		table[c][p].ObserveSeconds(int64(ev.Dur))
	}
}
