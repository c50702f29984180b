package hwsim_test

import (
	"sync"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// kernelCall is one KernelStats call: a kernel label and its events.
type kernelCall struct {
	name, kernel string
	events       []trace.Event
}

// suiteTraces returns every registered workload's default run, in
// registry order.
func suiteTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var trs []*trace.Trace
	for _, name := range core.WorkloadNames() {
		w, err := core.BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		e := ops.New()
		if err := w.Run(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trs = append(trs, e.Trace())
	}
	return trs
}

// suiteKernelCalls returns the KernelStats calls the suite makes on any
// device: core.Analyze's, one per phase and GEMM/element-wise class of
// every registered workload's default run, under Analyze's class labels,
// and Tab4's four rows over NVSA's run.
func suiteKernelCalls(t *testing.T) []kernelCall {
	t.Helper()
	var calls []kernelCall
	for i, tr := range suiteTraces(t) {
		name := core.WorkloadNames()[i]
		for _, p := range trace.Phases() {
			for _, c := range []struct {
				class hwsim.KernelClass
				label string
			}{{hwsim.ClassGEMM, "sgemm_nn"}, {hwsim.ClassEltwise, "vectorized_elem"}} {
				var evs []trace.Event
				for _, ev := range tr.Events {
					if ev.Phase == p && hwsim.ClassifyKernel(ev.Kernel) == c.class {
						evs = append(evs, ev)
					}
				}
				if len(evs) > 0 {
					calls = append(calls, kernelCall{name + "/" + p.String(), c.label, evs})
				}
			}
		}
		if name != "NVSA" {
			continue
		}
		pick := func(p trace.Phase, kernels ...string) []trace.Event {
			var out []trace.Event
			for _, ev := range tr.Events {
				for _, k := range kernels {
					if ev.Phase == p && ev.Kernel == k {
						out = append(out, ev)
					}
				}
			}
			return out
		}
		calls = append(calls,
			kernelCall{"Tab4", "sgemm_nn", pick(trace.Neural, "conv2d", "sgemm_nn")},
			kernelCall{"Tab4", "relu_nn", pick(trace.Neural, "relu_nn")},
			kernelCall{"Tab4", "vectorized_elem", pick(trace.Symbolic, "sgemv", "vectorized_elem")},
			kernelCall{"Tab4", "elementwise", pick(trace.Symbolic, "elementwise", "softmax", "reduce")},
		)
	}
	return calls
}

// TestKernelStatsMemoIdentical pins the stream memo to the simulation it
// caches: every KernelStats call of the suite, on every device, gives the
// same row field by field through the uncached spec → stats path, on a
// cold memo, and on a warm memo holding every other spec of the suite (so
// two specs sharing an entry would show).
func TestKernelStatsMemoIdentical(t *testing.T) {
	calls := suiteKernelCalls(t)
	devices := hwsim.AllDevices()
	ref := make([][]hwsim.KernelStats, len(devices))
	hwsim.ResetStreamMemo()
	for i, d := range devices {
		for _, c := range calls {
			r := d.KernelStatsUncached(c.kernel, c.events)
			if cold := d.KernelStats(c.kernel, c.events); cold != r {
				t.Fatalf("%s %s on %s:\ncold memo %+v\nuncached  %+v", c.name, c.kernel, d.Name, cold, r)
			}
			ref[i] = append(ref[i], r)
		}
	}
	if n := hwsim.StreamMemoLen(); n > hwsim.StreamMemoCap {
		t.Fatalf("memo holds %d specs, over its bound %d", n, hwsim.StreamMemoCap)
	}
	for i, d := range devices {
		for j, c := range calls {
			if warm := d.KernelStats(c.kernel, c.events); warm != ref[i][j] {
				t.Fatalf("%s %s on %s:\nwarm memo %+v\nuncached  %+v", c.name, c.kernel, d.Name, warm, ref[i][j])
			}
		}
	}
}

// TestKernelStatsConcurrent races KernelStats calls over shared and
// distinct specs from a cold memo; every result must equal the uncached
// one (run under -race to check the memo's locking).
func TestKernelStatsConcurrent(t *testing.T) {
	calls := []kernelCall{
		{"gemm", "sgemm_nn", []trace.Event{{Kernel: "sgemm_nn", FLOPs: 2 << 12, Bytes: 3 << 10}}},
		{"eltwise", "vectorized_elem", []trace.Event{{Kernel: "sgemv", FLOPs: 1 << 12, Bytes: 1 << 16}}},
		{"unary", "relu_nn", []trace.Event{{Kernel: "relu_nn", FLOPs: 1 << 10, Bytes: 1 << 14}}},
		{"gather", "gather", []trace.Event{{Kernel: "gather", Bytes: 1 << 14}}},
		{"copy", "memcpy", []trace.Event{{Kernel: "memcpy", Bytes: 1 << 15}}},
	}
	devices := hwsim.AllDevices()
	want := make(map[string]hwsim.KernelStats)
	for _, d := range devices {
		for _, c := range calls {
			want[d.Name+"/"+c.name] = d.KernelStatsUncached(c.kernel, c.events)
		}
	}
	hwsim.ResetStreamMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range devices {
				d := devices[(i+g)%len(devices)]
				for _, c := range calls {
					if got := d.KernelStats(c.kernel, c.events); got != want[d.Name+"/"+c.name] {
						t.Errorf("%s %s: %+v, uncached %+v", d.Name, c.name, got, want[d.Name+"/"+c.name])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamMemoBounded fills the memo past its bound with distinct
// specs: it must stay at the bound and keep answering correctly.
func TestStreamMemoBounded(t *testing.T) {
	hwsim.ResetStreamMemo()
	g := hwsim.CacheGeometry{L1Bytes: 1 << 10, L1Ways: 4, L2Bytes: 1 << 12, L2Ways: 4, LineBytes: 64}
	for i := 1; i <= hwsim.StreamMemoCap+64; i++ {
		// A working set of i lines: distinct specs, each a short stream.
		s := g.Stream(hwsim.ClassEltwise, "", 1, 0, int64(i)*6*64)
		if got, want := s.Stats(), s.Simulate(); got != want {
			t.Fatalf("spec %d: memoized %+v, simulated %+v", i, got, want)
		}
	}
	if n := hwsim.StreamMemoLen(); n != hwsim.StreamMemoCap {
		t.Fatalf("memo holds %d specs, want its bound %d", n, hwsim.StreamMemoCap)
	}
}

// TestEventTimeIsZeroHitKernelSeconds pins EventTime, and so every
// report's device projection, to the flat-DRAM closed form below: for
// every event of the suite on every device the two agree bit for bit, and
// both equal KernelSeconds at zero hit rates plus the launch overhead.
func TestEventTimeIsZeroHitKernelSeconds(t *testing.T) {
	flat := func(d hwsim.Device, e *trace.Event) time.Duration {
		effC, effM := d.EffGEMM, d.EffEltwise
		switch hwsim.ClassifyKernel(e.Kernel) {
		case hwsim.ClassGather:
			effM = d.EffGather
		case hwsim.ClassOther:
			effC, effM = d.EffOther, d.EffGather
		}
		var tCompute, tMemory float64
		if e.FLOPs > 0 {
			tCompute = float64(e.FLOPs) / (d.PeakFP32GFLOPs * effC * 1e9)
		}
		if e.Bytes > 0 {
			tMemory = float64(e.Bytes) / (d.MemBWGBs * effM * 1e9)
		}
		t := max(tCompute, tMemory)
		if (e.Kernel == "memcpy_h2d" || e.Kernel == "memcpy_d2h") && d.H2DGBs > 0 {
			t = float64(e.Bytes) / (d.H2DGBs * 1e9)
		}
		return time.Duration((t + d.LaunchUs*1e-6) * float64(time.Second))
	}
	n := 0
	for _, tr := range suiteTraces(t) {
		for i := range tr.Events {
			e := &tr.Events[i]
			for _, d := range hwsim.AllDevices() {
				got := d.EventTime(e)
				ks := d.KernelSeconds(hwsim.ClassifyKernel(e.Kernel), hwsim.IsHostCopy(e.Kernel), e.FLOPs, e.Bytes, 0, 0)
				if want := time.Duration((ks + d.LaunchUs*1e-6) * float64(time.Second)); got != want {
					t.Fatalf("%s %s on %s: EventTime %v, zero-hit KernelSeconds %v", e.Name, e.Kernel, d.Name, got, want)
				}
				if want := flat(d, e); got != want {
					t.Fatalf("%s %s on %s: EventTime %v, flat-DRAM model %v", e.Name, e.Kernel, d.Name, got, want)
				}
				n++
			}
		}
	}
	t.Logf("%d event×device projections checked", n)
}
