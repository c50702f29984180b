package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/hwsim"
)

// BenchmarkServeCacheHit measures the hot path: canonicalize, cache lookup,
// write cached bytes. No characterization executes after the first request.
func BenchmarkServeCacheHit(b *testing.B) {
	resetCtl(false)
	s := newTestServer(b, Config{})
	h := s.Handler()
	if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
		b.Fatalf("priming request: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
			b.Fatalf("request: %d", rec.Code)
		}
	}
	b.StopTimer()
	if s.st.runSeconds.Count() != 1 {
		b.Fatalf("cache-hit benchmark executed %d runs, want 1", s.st.runSeconds.Count())
	}
}

// BenchmarkServeMiss measures the full pipeline — admission queue, flight
// dispatch, characterization, report rendering — with the cache disabled so
// every request is a miss.
func BenchmarkServeMiss(b *testing.B) {
	resetCtl(false)
	s := newTestServer(b, Config{CacheSize: -1})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, `{"workload":"testfast"}`); rec.Code != http.StatusOK {
			b.Fatalf("request: %d %s", rec.Code, rec.Body)
		}
	}
}

// benchServeConcurrent drives b.N cache-missing characterize requests
// through cfg with the given client concurrency, cycling the analysis
// device so concurrent requests carry distinct cache keys (identical keys
// would measure singleflight, not the execution path under test). It
// reports the mean coalesced pass size (occupancy, 0 unbatched) and the
// engine passes run per request (passes/req).
func benchServeConcurrent(b *testing.B, cfg Config, clients int) {
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(b, cfg)
	h := s.Handler()
	devs := hwsim.AllDevices()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				dev := devs[i%len(devs)].Name
				rec := post(h, fmt.Sprintf(`{"workload":"testbatch","device":%q}`, dev))
				if rec.Code != http.StatusOK {
					b.Errorf("request: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	snap := s.st.snapshot()
	b.ReportMetric(snap.AvgOccupancy, "occupancy")
	b.ReportMetric(float64(snap.Runs)/float64(b.N), "passes/req")
}

// BenchmarkServeBatch compares cache-miss serving throughput with and
// without request coalescing at client concurrencies 8 and 32. The
// workload is the native-batch testbatch, whose amplified pass makes a
// coalesced batch of n cost about one solo run — the serving win the
// batching tier exists for. Results are recorded in BENCH_baseline.json.
func BenchmarkServeBatch(b *testing.B) {
	for _, clients := range []int{8, 32} {
		b.Run(fmt.Sprintf("unbatched/c%d", clients), func(b *testing.B) {
			benchServeConcurrent(b, Config{CacheSize: -1, QueueDepth: 256}, clients)
		})
		b.Run(fmt.Sprintf("batched/c%d", clients), func(b *testing.B) {
			benchServeConcurrent(b, Config{
				CacheSize:   -1,
				QueueDepth:  256,
				BatchWindow: 2 * time.Millisecond,
				BatchMax:    8,
			}, clients)
		})
	}
}
