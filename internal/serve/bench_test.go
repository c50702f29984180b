package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

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

// BenchmarkServeConcurrentMiss measures cache-miss serving throughput at
// client concurrencies 8 and 32: b.N testmatmul requests with the cache
// disabled, cycling the analysis device so concurrent requests carry
// distinct cache keys. With four devices several clients still share a
// key, and singleflight joins them onto one run; runs/req reports the
// engine runs per request. Results are recorded in BENCH_baseline.json.
func BenchmarkServeConcurrentMiss(b *testing.B) {
	for _, clients := range []int{8, 32} {
		b.Run(fmt.Sprintf("c%d", clients), func(b *testing.B) {
			resetCtl(false)
			s := newTestServer(b, Config{CacheSize: -1, QueueDepth: 256})
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
						if code := postDevice(h, "testmatmul", devs[i%len(devs)].Name); code != http.StatusOK {
							b.Errorf("request: status %d", code)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(s.st.runSeconds.Count())/float64(b.N), "runs/req")
		})
	}
}
