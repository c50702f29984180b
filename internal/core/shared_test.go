package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
)

// raceEnabled is set by race_test.go under the race detector, where
// sync.Pool drops a random quarter of what is put back, so a cached model
// is not reliably cached.
var raceEnabled bool

// TestRegistryRecordsIdentity pins the identity recorded at registration,
// which listing the registry serves without building anything, to what the
// built workload reports.
func TestRegistryRecordsIdentity(t *testing.T) {
	for _, info := range Workloads() {
		w := registry[info.Name].build()
		if w.Name() != info.Name || w.Category() != info.Category {
			t.Errorf("registered as %+v, built workload reports %q/%q", info, w.Name(), w.Category())
		}
	}
}

// TestSharedModelReportsMatchFreshBuild is the contract that lets every
// caller share one model per workload: for every registered workload, the
// 1st, 2nd and 3rd characterizations through BuildWorkload, a batch of
// three through CharacterizeBatch, and three concurrent characterizations
// of one shared instance each report exactly what a freshly built
// instance's first run reports, on every modeled device (traces modulo
// wall time and tensor IDs). Under -race the concurrent runs also check
// that no Run writes its instance.
func TestSharedModelReportsMatchFreshBuild(t *testing.T) {
	const n = 3
	for _, name := range WorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh, err := Characterize(registry[name].build(), Options{})
			if err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			want := []*Report{fresh}

			for i := 0; i < n; i++ {
				w, err := BuildWorkload(name)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Characterize(w, Options{})
				if err != nil {
					t.Fatalf("characterization %d: %v", i+1, err)
				}
				sameReportsOnAllDevices(t, fmt.Sprintf("characterization %d", i+1), []*Report{r}, want)
			}

			bw, err := BuildWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			items, err := CharacterizeBatch(bw, n, Options{})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i, r := range items {
				sameReportsOnAllDevices(t, fmt.Sprintf("batch item %d", i), []*Report{r}, want)
			}

			w, err := BuildWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			pool := ops.Config{Backend: ops.BackendParallel, Workers: 2}.NewPool()
			defer pool.Close()
			got := make([]*Report, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = Characterize(w, Options{Pool: pool})
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				sameReportsOnAllDevices(t, fmt.Sprintf("concurrent run %d", i), got[i:i+1], want)
			}
		})
	}
}

// TestSharedModelBuiltOnce pins the cache hit: once NVSA's model is built,
// asking for it again builds nothing and allocates (almost) nothing. GC
// is off so no cycle drops the model between the calls, and one P keeps
// the calls on the pool slot that holds it.
func TestSharedModelBuiltOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its puts under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, err := BuildWorkload("NVSA")
	if err != nil {
		t.Fatal(err)
	}
	builds := WorkloadBuilds("NVSA")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := BuildWorkload("NVSA")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a second BuildWorkload(NVSA) allocated %d B, want < 64 KiB", got)
	}
	if WorkloadBuilds("NVSA") != builds || first != second {
		t.Errorf("a second BuildWorkload(NVSA) built a new model (%d builds, was %d)", WorkloadBuilds("NVSA"), builds)
	}
}

// TestSharedModelFreedAfterTwoGCs pins the other side of the cache: the
// model lives only in its pool, so with no run holding it one GC cycle
// keeps it (the pool's victim cache) and the second frees it. NVSA's
// codebooks and weights are ~45 MiB.
func TestSharedModelFreedAfterTwoGCs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its puts under -race")
	}
	if _, err := BuildWorkload("NVSA"); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	kept := m.HeapAlloc
	runtime.GC()
	runtime.ReadMemStats(&m)
	if freed := int64(kept) - int64(m.HeapAlloc); freed < 40<<20 {
		t.Fatalf("the second GC freed %.1f MiB (heap %.1f → %.1f MiB), want NVSA's model (≥ 40 MiB) gone",
			float64(freed)/(1<<20), float64(kept)/(1<<20), float64(m.HeapAlloc)/(1<<20))
	}
}
