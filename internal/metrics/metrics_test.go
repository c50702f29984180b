package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Re-registration under the same name returns the same counter.
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestCounterVecInternsChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "help", "endpoint", "code")
	a := v.With("/x", "200")
	b := v.With("/x", "200")
	if a != b {
		t.Fatal("same label values must intern to the same child")
	}
	v.With("/x", "500").Inc()
	a.Add(2)
	if a.Value() != 2 || v.With("/x", "500").Value() != 1 {
		t.Fatal("children must count independently")
	}
}

func TestRegistryPanicsOnRedefinition(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	for name, fn := range map[string]func(){
		"kind mismatch":  func() { r.Gauge("dup", "") },
		"label mismatch": func() { r.CounterVec("dup", "", "l") },
		"bad name":       func() { r.Counter("0bad", "") },
		"bad label":      func() { r.CounterVec("ok_total", "", "le") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(4)
	g.Add(-1.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestFuncBackedMetrics(t *testing.T) {
	r := NewRegistry()
	n := 7
	r.GaugeFunc("queue_depth", "", func() float64 { return float64(n) })
	r.CounterFunc("dispatched_total", "", func() uint64 { return uint64(n) * 2 })
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"queue_depth 7\n", "dispatched_total 14\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-5.565) > 1e-9 {
		t.Fatalf("sum = %v, want 5.565", got)
	}
	// Bucket semantics: v <= bound, so 0.01 lands in the first bucket.
	want := []uint64{2, 1, 1, 1}
	got := h.counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	// 100 observations uniform in (1, 2]: the 0.5-quantile interpolates
	// to ~1.5 inside the second bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 0.01 {
		t.Fatalf("p50 = %v, want ~1.5", got)
	}
	if got := h.Quantile(1); got > 2 {
		t.Fatalf("p100 = %v, want <= 2 (upper bound of the occupied bucket)", got)
	}
	// Overflow observations clamp to the highest finite bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("overflow quantile = %v, want 8", got)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if n := len(LatencyBuckets()); n != 16 {
		t.Fatalf("LatencyBuckets len = %d, want 16", n)
	}
}

// TestConcurrentUse exercises updates, child creation, and exposition in
// parallel; run under -race this is the registry's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", nil)
	v := r.CounterVec("v_total", "", "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := v.With(string(rune('a' + w)))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-4)
				child.Inc()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
}

func TestGoCollector(t *testing.T) {
	r := NewRegistry()
	NewGoCollector(r)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"go_goroutines ", "go_heap_alloc_bytes ", "go_gc_cycles_total ", "go_gc_pause_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "go_goroutines "); ok {
			if n, err := strconv.Atoi(v); err != nil || n < 1 {
				t.Fatalf("go_goroutines = %q, want >= 1", v)
			}
		}
	}
}
