package core

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// poisonBackend is a serial backend whose scratch memory fails loudly when
// misused. Every buffer it hands out is NaN-filled, so an output a kernel
// forgot to zero or to overwrite leaks NaN into the run; every buffer it
// gets back is NaN-filled again and never handed out anew, so a tensor
// read after its storage was released or recycled reads NaN. Either way
// the run's answers and measured sparsities stop matching a serial run.
type poisonBackend struct {
	backend.Serial
	drawn, released atomic.Int64
}

func (p *poisonBackend) Scratch(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

func (p *poisonBackend) Release(buf []float64) {
	full := buf[:cap(buf)]
	for i := range full {
		full[i] = math.NaN()
	}
}

func (p *poisonBackend) Scratch32(n int) []float32 {
	p.drawn.Add(1)
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf
}

func (p *poisonBackend) Release32(buf []float32) {
	p.released.Add(1)
	full := buf[:cap(buf)]
	for i := range full {
		full[i] = float32(math.NaN())
	}
}

// runs is how many Runs of one workload instance the lifetime tests
// compare: the second Run must not read anything the first one's recycle
// handed back.
const runs = 2

// serialReports characterizes one instance of the named workload runs
// times on the default serial pool: the reference side.
func serialReports(t *testing.T, name string) []*Report {
	t.Helper()
	w, err := BuildWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Report
	for i := 0; i < runs; i++ {
		r, err := Characterize(w, Options{})
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		out = append(out, r)
	}
	return out
}

// sameReportsOnAllDevices checks that got and want describe the same runs:
// identical traces modulo wall time and tensor IDs, and identical
// deterministic report fields when each trace is analyzed against every
// modeled device.
func sameReportsOnAllDevices(t *testing.T, label string, got, want []*Report) {
	t.Helper()
	for i := range want {
		sameTraceModuloTiming(t, fmt.Sprintf("%s run %d", label, i), got[i].Trace, want[i].Trace)
		for _, d := range hwsim.AllDevices() {
			opts := Options{Device: d}
			g := detJSON(t, Analyze(got[i].Name, got[i].Category, got[i].Trace, opts))
			w := detJSON(t, Analyze(want[i].Name, want[i].Category, want[i].Trace, opts))
			if string(g) != string(w) {
				t.Errorf("%s run %d on %s: deterministic report diverges from a fresh serial engine:\ngot:  %s\nwant: %s", label, i, d.Name, g, w)
			}
		}
	}
}

// TestRecycledPoolReportsMatchFreshSerial is the run-scoped lifetime
// contract for every registered workload: characterizations on a warm
// parallel pool, each starting on the buffers the previous run handed
// back, report exactly what fresh serial engines report, on every device.
func TestRecycledPoolReportsMatchFreshSerial(t *testing.T) {
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := serialReports(t, name)

			pool := ops.Config{Backend: ops.BackendParallel, Workers: 3}.NewPool()
			defer pool.Close()
			warm, err := BuildWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Characterize(warm, Options{Pool: pool}); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}

			w, err := BuildWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			var got []*Report
			for i := 0; i < runs; i++ {
				r, err := Characterize(w, Options{Pool: pool})
				if err != nil {
					t.Fatalf("pooled run %d: %v", i, err)
				}
				got = append(got, r)
			}
			sameReportsOnAllDevices(t, "recycled pool", got, want)
		})
	}
}

// TestPoisonedBackendReportsMatchFreshSerial characterizes every
// registered workload on poisonBackend, twice per instance: any output
// left unzeroed, or read after it went back (in the run, or in the next
// Run of the same instance), turns into NaN and changes the report. NVSA's and PrAE's serial
// reports are pinned by their golden tests, so those hold here too.
func TestPoisonedBackendReportsMatchFreshSerial(t *testing.T) {
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := serialReports(t, name)

			pb := &poisonBackend{}
			pool := ops.NewPool(pb)
			w, err := BuildWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			var got []*Report
			for i := 0; i < runs; i++ {
				r, err := Characterize(w, Options{Pool: pool})
				if err != nil {
					t.Fatalf("poisoned run %d: %v", i, err)
				}
				got = append(got, r)
			}
			if pb.drawn.Load() == 0 || pb.released.Load() == 0 {
				t.Fatalf("poisoned backend drew %d and took back %d buffers; the test lost its subject", pb.drawn.Load(), pb.released.Load())
			}
			sameReportsOnAllDevices(t, "poisoned backend", got, want)
		})
	}
}

// TestConcurrentCharacterizeSharedPool runs characterizations of the three
// symbolic-closed classes concurrently on one pool, so recycled buffers
// cross between runs of different workloads; under -race this also
// checks the pool's and the engines' bookkeeping.
func TestConcurrentCharacterizeSharedPool(t *testing.T) {
	names := []string{"NVSA", "PrAE", "VSAIT"}
	want := map[string][]byte{}
	for _, name := range names {
		want[name] = detJSON(t, serialReports(t, name)[0])
	}
	pool := ops.Config{Backend: ops.BackendParallel, Workers: 2}.NewPool()
	defer pool.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				w, err := BuildWorkload(name)
				if err != nil {
					t.Error(err)
					return
				}
				r, err := Characterize(w, Options{Pool: pool})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got := detJSON(t, r); string(got) != string(want[name]) {
					t.Errorf("%s: concurrent pooled report diverges from serial:\ngot:  %s\nwant: %s", name, got, want[name])
				}
			}(name)
		}
	}
	wg.Wait()
}

// TestRecycleHandsEveryBufferBack pins where the lifetime ends: after
// Recycle, which Characterize calls once the run ends, every buffer the
// run drew is back in the pool exactly once. GC is off: a collection
// during the run would reclaim dead intermediates instead.
func TestRecycleHandsEveryBufferBack(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, err := BuildWorkload("PrAE")
	if err != nil {
		t.Fatal(err)
	}
	pb := &poisonBackend{}
	e := ops.NewPool(pb).Engine()
	if err := w.Run(e); err != nil {
		t.Fatal(err)
	}
	before := pb.released.Load()
	e.Recycle()
	if got, drawn := pb.released.Load(), pb.drawn.Load(); got != drawn {
		t.Fatalf("after Recycle %d of %d drawn buffers are back (%d before it)", got, drawn, before)
	}
	e.Recycle()
	if got, drawn := pb.released.Load(), pb.drawn.Load(); got != drawn {
		t.Fatalf("a second Recycle put buffers back twice: %d puts for %d draws", got, drawn)
	}
	if e.Trace().Len() == 0 || e.Trace().PhaseDuration(trace.Symbolic) == 0 {
		t.Fatal("the trace must survive Recycle")
	}
}
