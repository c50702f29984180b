// Package metrics is a dependency-free, lock-cheap metrics registry for
// the nsbench serving and characterization stack.
//
// The paper behind this repo is a measurement study; metrics is what turns
// its one-off profiles into continuously observable signals. The package
// provides the three conventional metric types — monotonic Counter,
// settable Gauge, and fixed-bucket exponential Histogram — grouped into
// named families with optional labels, exposed in the Prometheus text
// format (WriteProm).
//
// Design points:
//
//   - Hot-path updates are single atomic operations (Counter.Inc,
//     Gauge.Set) or an atomic add plus a branch-free binary search
//     (Histogram.Observe); no locks, no allocation. The registry locks
//     only on metric *creation* and exposition, never on update.
//   - Handles are cheap to cache: Vec.With interns children, so callers
//     resolve labels once at startup and update lock-free afterwards.
//   - Exposition is deterministic: families appear in registration order
//     and children in creation order, so scrapes and golden tests are
//     stable.
//   - Sampled sources (the Go runtime, worker pools) publish through the
//     Collector interface or func-backed metrics, evaluated at exposition
//     time only.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the three metric types of a family.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Collector refreshes sampled metrics immediately before the registry is
// exposed. Register implementations with Registry.RegisterCollector; the
// registry calls Collect once per WriteProm, outside
// any registry lock, so a Collect may create or update metrics freely.
type Collector interface {
	Collect()
}

// Registry owns a set of metric families. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	families   []*family
	byName     map[string]*family
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// RegisterCollector adds c to the set of collectors run before every
// exposition.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// runCollectors snapshots the collector list and runs it without holding
// the registry lock, so collectors may register metrics.
func (r *Registry) runCollectors() {
	r.mu.RLock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.RUnlock()
	for _, c := range cs {
		c.Collect()
	}
}

// family groups all children (label combinations) of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]*child
	order    []*child
}

// child is one (label values → metric) binding inside a family.
type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family registers or retrieves the named family, panicking on a
// redefinition with a different shape — metric names are API, and a
// silent mismatch would corrupt dashboards.
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s redefined as %s%v (was %s%v)", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// get interns the child for the given label values.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := appendKey(buf[:0], values)
	f.mu.RLock()
	c, ok := f.children[string(key)] // a lookup converts without allocating
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.ctr = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children[string(key)] = c
	f.order = append(f.order, c)
	return c
}

// appendKey appends the children-map key of a label tuple to dst: each
// value prefixed by its length, so that no two distinct tuples share a
// key (with a plain separator, ("a\xff", "b") and ("a", "\xffb") would).
func appendKey(dst []byte, values []string) []byte {
	for _, v := range values {
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, ':')
		dst = append(dst, v...)
	}
	return dst
}

// Counter registers (or retrieves) an unlabeled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).ctr
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for monotonic sources that already keep their own
// atomics (e.g. a worker pool's dispatch counts).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.family(name, help, KindCounter, nil, nil).get(nil).ctr.fn = fn
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: CounterVec needs at least one label (use Counter)")
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — for point-in-time sources like queue depths.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, KindGauge, nil, nil).get(nil).gauge.fn = fn
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("metrics: GaugeVec needs at least one label (use Gauge)")
	}
	return &GaugeVec{f: r.family(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or retrieves) an unlabeled histogram with the
// given ascending bucket upper bounds (a final +Inf bucket is implicit).
// Nil bounds select LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, KindHistogram, nil, normalizeBounds(bounds)).get(nil).hist
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("metrics: HistogramVec needs at least one label (use Histogram)")
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, labels, normalizeBounds(bounds))}
}

// CounterVec resolves label values to Counter children.
type CounterVec struct{ f *family }

// With interns and returns the counter for the given label values. Cache
// the result on hot paths: With takes the family lock, Inc does not.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).ctr }

// GaugeVec resolves label values to Gauge children.
type GaugeVec struct{ f *family }

// With interns and returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// HistogramVec resolves label values to Histogram children.
type HistogramVec struct{ f *family }

// With interns and returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// Counter is a monotonically increasing counter. Updates are single
// atomic adds; Value of a func-backed counter defers to its source.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a float64 value that may go up and down, stored as atomic
// bits. Set is a single atomic store; Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed exponential buckets. Observe
// is one branch-free binary search plus two atomic updates; quantiles are
// estimated at read time by linear interpolation inside the target
// bucket (the standard fixed-bucket estimator: exact bucket membership,
// interpolated position — accurate to the bucket resolution).
type Histogram struct {
	bounds  []float64       // ascending upper bounds; observations <= bounds[i] land in bucket i
	buckets []atomic.Uint64 // len(bounds)+1; the last is the +Inf overflow bucket
	sumBits atomic.Uint64   // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First index with bounds[i] >= v; len(bounds) selects the overflow
	// bucket, which is also where a NaN lands: it is at or below no bound.
	// Hand-rolled to keep the hot path free of closure calls.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(v <= h.bounds[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSeconds records a duration in seconds given nanoseconds — the
// common caller shape is Observe(time.Since(start)).
func (h *Histogram) ObserveSeconds(nanos int64) { h.Observe(float64(nanos) / 1e9) }

// Count returns the total number of observations, computed as the sum of
// the bucket counts so it is always consistent with the buckets a
// concurrent reader sees.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CountAtOrBelow returns how many observations landed in buckets whose
// upper bound is <= bound — the cumulative count the bucket resolution
// can answer exactly. A bound between two bucket boundaries rounds down
// to the lower boundary (the conservative side for "requests faster than
// X" SLO accounting: never counts a slow request as fast). This is the
// histogram-side feed for latency objectives (internal/slo).
func (h *Histogram) CountAtOrBelow(bound float64) uint64 {
	var n uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		n += h.buckets[i].Load()
	}
	return n
}

// counts loads every bucket once.
func (h *Histogram) counts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution. Inside the target bucket the observations are assumed
// uniformly distributed (linear interpolation from the bucket's lower to
// upper bound); observations in the overflow bucket are clamped to the
// highest finite bound. Returns NaN when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.counts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		return lower + (h.bounds[i]-lower)*((rank-prev)/float64(c))
	}
	return h.bounds[len(h.bounds)-1]
}

// ExponentialBuckets returns count upper bounds starting at start and
// growing by factor: start, start*factor, ... Start must be positive and
// factor > 1.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExponentialBuckets wants start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default request-latency bucketing: 100µs to
// ~3.3s doubling, in seconds. It spans cache hits (µs) through full
// characterization runs (hundreds of ms) with two-decade headroom.
func LatencyBuckets() []float64 { return ExponentialBuckets(100e-6, 2, 16) }

// OpBuckets is the default per-operator bucketing: 1µs to ~4s growing
// 4×, in seconds — operator times span six orders of magnitude, so the
// coarser factor keeps the bucket count small.
func OpBuckets() []float64 { return ExponentialBuckets(1e-6, 4, 12) }

func normalizeBounds(bounds []float64) []float64 {
	if bounds == nil {
		return LatencyBuckets()
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending")
	}
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	return append([]float64(nil), bounds...)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

func mustValidLabel(label string) {
	if !validName(label, false) || label == "le" {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
}

// validName checks the Prometheus name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*
// for metrics (allowColon), [a-zA-Z_][a-zA-Z0-9_]* for labels.
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
