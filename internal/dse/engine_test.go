package dse

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/trace"
)

// testTrace is a small synthetic neuro-symbolic trace: GEMM-heavy neural
// phase, gather/scalar symbolic phase, plus transfers. Several events share
// a cost tuple so signature dedup has something to merge.
func testTrace() *trace.Trace {
	tr := &trace.Trace{}
	add := func(kernel string, phase trace.Phase, flops, bytes int64, n int) {
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, trace.Event{
				Seq: len(tr.Events), Name: kernel, Kernel: kernel,
				Phase: phase, FLOPs: flops, Bytes: bytes,
			})
		}
	}
	add("memcpy_h2d", trace.Neural, 0, 1<<20, 2)
	add("sgemm_nn", trace.Neural, 1<<27, 1<<22, 6)
	add("relu_nn", trace.Neural, 1<<20, 1<<21, 6)
	add("gather", trace.Symbolic, 0, 1<<22, 8)
	add("vectorized_elem", trace.Symbolic, 1<<24, 1<<23, 4)
	add("transform", trace.Symbolic, 0, 1<<19, 3)
	return tr
}

func testEngine(t *testing.T, space Space) *Engine {
	t.Helper()
	g, err := Resolve(hwsim.RTX2080Ti, space)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(g, testTrace())
}

func TestSignatureCompression(t *testing.T) {
	sig := buildSignature(testTrace())
	// 6 distinct cost tuples from 29 events.
	if len(sig.events) != 6 {
		t.Fatalf("signature has %d rows, want 6", len(sig.events))
	}
	var n int64
	for _, ev := range sig.events {
		n += ev.count
	}
	if n != 29 {
		t.Fatalf("signature multiplicities sum to %d, want 29", n)
	}
	if !sig.events[0].h2d {
		t.Fatalf("first row should be the h2d copy: %+v", sig.events[0])
	}
	wantFlops := int64(6<<27 + 6<<20 + 4<<24)
	if sig.flops != wantFlops {
		t.Fatalf("total flops = %d, want %d", sig.flops, wantFlops)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	space := DefaultSpace()
	e1 := testEngine(t, space)
	e2 := testEngine(t, space)
	for i := 0; i < e1.Grid().Size(); i++ {
		a, b := e1.Evaluate(i), e2.Evaluate(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %d diverged across engines:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestEvaluateScoresAreSane(t *testing.T) {
	e := testEngine(t, Space{})
	res := e.Evaluate(0)
	if res.Err != "" {
		t.Fatalf("base point failed: %s", res.Err)
	}
	if res.LatencyNs <= 0 {
		t.Fatalf("latency %d, want positive", res.LatencyNs)
	}
	if res.NeuralNs <= 0 || res.SymbolicNs <= 0 {
		t.Fatalf("phase times %d/%d, want both positive", res.NeuralNs, res.SymbolicNs)
	}
	if res.SymbolicShare <= 0 || res.SymbolicShare >= 1 {
		t.Fatalf("symbolic share %v, want in (0,1)", res.SymbolicShare)
	}
	if res.Balance <= 0 || res.Balance > 1 {
		t.Fatalf("balance %v, want in (0,1]", res.Balance)
	}
	if res.AttainPct <= 0 || res.AttainPct > 100 {
		t.Fatalf("attainment %v, want in (0,100]", res.AttainPct)
	}
	if res.L1HitPct < 0 || res.L1HitPct > 100 || res.L2HitPct < 0 || res.L2HitPct > 100 {
		t.Fatalf("hit rates %v/%v out of range", res.L1HitPct, res.L2HitPct)
	}
	if res.EnergyJ <= 0 || res.Cost <= 0 {
		t.Fatalf("energy %v / cost %v, want positive", res.EnergyJ, res.Cost)
	}
}

// TestEvaluateMonotonicity pins the directional physics of the model:
// more bandwidth and more compute never slow a point down, and a bigger
// chip always costs more.
func TestEvaluateMonotonicity(t *testing.T) {
	e := testEngine(t, Space{
		PeakGFLOPs: Axis{Values: []float64{2000, 8000}},
		MemBWGBs:   Axis{Values: []float64{100, 600}},
	})
	// Row-major: index = 2*iPeak + iBW.
	get := func(i int) PointResult {
		r := e.Evaluate(i)
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", i, r.Err)
		}
		return r
	}
	slowSmall, fastSmall := get(0), get(1) // 2000 GFLOPs x {100, 600} GB/s
	slowBig, fastBig := get(2), get(3)     // 8000 GFLOPs x {100, 600} GB/s
	if fastSmall.LatencyNs > slowSmall.LatencyNs || fastBig.LatencyNs > slowBig.LatencyNs {
		t.Fatalf("more DRAM bandwidth slowed the point down")
	}
	if slowBig.LatencyNs > slowSmall.LatencyNs || fastBig.LatencyNs > fastSmall.LatencyNs {
		t.Fatalf("more compute slowed the point down")
	}
	if fastBig.Cost <= slowSmall.Cost {
		t.Fatalf("bigger chip (cost %v) should cost more than smaller (%v)", fastBig.Cost, slowSmall.Cost)
	}
}

// TestEvaluateCacheKnobsMatter pins that cache geometry feeds the latency
// model: a tiny L1+L2 must not beat a large one, all else equal.
func TestEvaluateCacheKnobsMatter(t *testing.T) {
	e := testEngine(t, Space{
		L1KB: Axis{Values: []float64{4, 128}},
		L2KB: Axis{Values: []float64{64, 8192}},
	})
	tiny, big := e.Evaluate(0), e.Evaluate(3)
	if tiny.Err != "" || big.Err != "" {
		t.Fatalf("points failed: %q %q", tiny.Err, big.Err)
	}
	if big.LatencyNs > tiny.LatencyNs {
		t.Fatalf("bigger caches (lat %d) slower than tiny ones (lat %d)", big.LatencyNs, tiny.LatencyNs)
	}
	if big.L2HitPct <= tiny.L2HitPct {
		t.Fatalf("bigger L2 hit rate %v should exceed tiny %v", big.L2HitPct, tiny.L2HitPct)
	}
}

func TestEvaluateDegeneratePointCarriesError(t *testing.T) {
	e := testEngine(t, Space{MemBWGBs: Axis{Values: []float64{0, 616}}})
	res := e.Evaluate(0)
	if res.Err == "" {
		t.Fatal("zero-bandwidth point should carry a diagnostic error")
	}
	if res.LatencyNs != 0 {
		t.Fatalf("failed point should carry no scores, got latency %d", res.LatencyNs)
	}
	if ok := e.Evaluate(1); ok.Err != "" {
		t.Fatalf("valid sibling point failed: %s", ok.Err)
	}
}

func TestProfileMemoization(t *testing.T) {
	e := testEngine(t, Space{PeakGFLOPs: Axis{Min: 1000, Max: 16000, Steps: 8}})
	for i := 0; i < e.Grid().Size(); i++ {
		e.Evaluate(i)
	}
	// Every point shares the base cache geometry: exactly one profile.
	if n := len(e.profiles); n != 1 {
		t.Fatalf("%d cache profiles simulated for a compute-only sweep, want 1", n)
	}
}

// TestSweepStreamsShared pins the process-wide sweep memo: a sweep leaves
// exactly its geometries' streams in it, and a second engine over the
// same trace, as a repeated request builds, scores the same points
// without adding a spec.
func TestSweepStreamsShared(t *testing.T) {
	defer func(m *hwsim.StreamMemo) { sweepStreams = m }(sweepStreams)
	sweepStreams = hwsim.NewStreamMemo(sweepStreamCap)
	space := Space{L1KB: Axis{Values: []float64{32, 64}}, LineBytes: Axis{Values: []float64{64, 128}}}
	a := testEngine(t, space)
	want := make(map[hwsim.StreamSpec]bool)
	for i := 0; i < a.Grid().Size(); i++ {
		a.Evaluate(i)
		k := a.Grid().Knobs(i)
		g := hwsim.CacheGeometry{L1Bytes: k.L1KB * 1024, L1Ways: k.Ways, L2Bytes: k.L2KB * 1024, L2Ways: 16, LineBytes: k.LineBytes}
		for ph := range a.sig.classCount {
			for c, n := range a.sig.classCount[ph] {
				if n > 0 {
					want[g.Stream(hwsim.KernelClass(c), "", n, a.sig.classFlops[ph][c], a.sig.classBytes[ph][c])] = true
				}
			}
		}
	}
	if n := sweepStreams.Len(); n != len(want) {
		t.Fatalf("sweep memo holds %d specs after one sweep, want the grid's %d", n, len(want))
	}
	b := testEngine(t, space)
	for i := 0; i < b.Grid().Size(); i++ {
		if got, ref := b.Evaluate(i), a.Evaluate(i); !reflect.DeepEqual(got, ref) {
			t.Fatalf("point %d: second engine %+v, first %+v", i, got, ref)
		}
	}
	if n := sweepStreams.Len(); n != len(want) {
		t.Fatalf("sweep memo holds %d specs after a repeated sweep, want %d", n, len(want))
	}
}

func TestEngineConcurrentEvaluate(t *testing.T) {
	e := testEngine(t, Space{
		PeakGFLOPs: Axis{Values: []float64{2000, 8000}},
		L1KB:       Axis{Values: []float64{32, 64, 128}},
	})
	want := make([]PointResult, e.Grid().Size())
	for i := range want {
		want[i] = testEngine(t, Space{
			PeakGFLOPs: Axis{Values: []float64{2000, 8000}},
			L1KB:       Axis{Values: []float64{32, 64, 128}},
		}).Evaluate(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < e.Grid().Size(); i++ {
				if got := e.Evaluate(i); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Evaluate(%d) diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSweepShardingPartition(t *testing.T) {
	space := Space{
		PeakGFLOPs: Axis{Values: []float64{1000, 2000, 4000}},
		MemBWGBs:   Axis{Values: []float64{100, 300, 900}},
		L1KB:       Axis{Values: []float64{32, 128}},
	}
	e := testEngine(t, space)
	size := e.Grid().Size()

	full, err := e.Sweep(context.Background(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Evaluated != size || full.Failed != 0 {
		t.Fatalf("full sweep evaluated %d (failed %d), want %d/0", full.Evaluated, full.Failed, size)
	}
	if full.PointsPerSec <= 0 || full.ElapsedNs <= 0 {
		t.Fatalf("throughput not recorded: %+v", full)
	}

	const shards = 3
	seen := make(map[int]bool)
	var fronts [][]PointResult
	for s := 0; s < shards; s++ {
		var pts []PointResult
		sum, err := e.Sweep(context.Background(), s, shards, func(p PointResult) error {
			pts = append(pts, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if p.Index%shards != s {
				t.Fatalf("shard %d emitted index %d", s, p.Index)
			}
			if seen[p.Index] {
				t.Fatalf("index %d emitted by two shards", p.Index)
			}
			seen[p.Index] = true
		}
		fronts = append(fronts, sum.Front)
	}
	if len(seen) != size {
		t.Fatalf("shards covered %d indices, want %d", len(seen), size)
	}

	// The merged shard fronts equal the single-node front exactly.
	merged := MergeFronts(fronts...)
	if !reflect.DeepEqual(merged, full.Front) {
		t.Fatalf("merged shard fronts != full front:\n%+v\n%+v", merged, full.Front)
	}
}

func TestSweepShardIndexValidation(t *testing.T) {
	e := testEngine(t, Space{})
	if _, err := e.Sweep(context.Background(), 2, 2, nil); err == nil {
		t.Fatal("shard index == shard count should fail")
	}
	if _, err := e.Sweep(context.Background(), -1, 2, nil); err == nil {
		t.Fatal("negative shard index should fail")
	}
}

func TestSweepCancellation(t *testing.T) {
	e := testEngine(t, DefaultSpace())
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := e.Sweep(ctx, 0, 1, func(PointResult) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n > 6 {
		t.Fatalf("sweep kept evaluating after cancel: %d points", n)
	}
}

func TestSweepEmitErrorAborts(t *testing.T) {
	e := testEngine(t, DefaultSpace())
	boom := errors.New("client went away")
	_, err := e.Sweep(context.Background(), 0, 1, func(PointResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

func TestSweepCountsFailedPoints(t *testing.T) {
	e := testEngine(t, Space{MemBWGBs: Axis{Values: []float64{0, 300, 900}}})
	sum, err := e.Sweep(context.Background(), 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Evaluated != 3 || sum.Failed != 1 {
		t.Fatalf("evaluated %d failed %d, want 3/1", sum.Evaluated, sum.Failed)
	}
	for _, p := range sum.Front {
		if p.Err != "" {
			t.Fatalf("failed point leaked into front: %+v", p)
		}
	}
}

// refLRU is one tick-stamped true-LRU cache level: per-way recency
// stamps, a way scan for the victim and divisions for the address split.
// It is the reference the DSE cache profiles are checked against.
type refLRU struct {
	line, sets   uint64
	tags, stamps [][]uint64
	tick         uint64
	acc, miss    uint64
}

func newRefLRU(sizeBytes, ways, line int) *refLRU {
	sets := sizeBytes / (ways * line)
	if sets == 0 {
		sets = 1
	}
	c := &refLRU{line: uint64(line), sets: uint64(sets)}
	for s := 0; s < sets; s++ {
		tags := make([]uint64, ways)
		for w := range tags {
			tags[w] = ^uint64(0)
		}
		c.tags = append(c.tags, tags)
		c.stamps = append(c.stamps, make([]uint64, ways))
	}
	return c
}

func (c *refLRU) access(addr uint64) bool {
	c.tick++
	c.acc++
	line := addr / c.line
	set, tag := line%c.sets, line/c.sets
	victim := 0
	for w, t := range c.tags[set] {
		if t == tag {
			c.stamps[set][w] = c.tick
			return true
		}
		if c.stamps[set][w] < c.stamps[set][victim] {
			victim = w
		}
	}
	c.miss++
	c.tags[set][victim], c.stamps[set][victim] = tag, c.tick
	return false
}

func (c *refLRU) hitRate() float64 {
	if c.acc == 0 {
		return 0
	}
	return 1 - float64(c.miss)/float64(c.acc)
}

// TestEvaluateLineBytesAxis sweeps a line_bytes axis that holds a
// non-power-of-two line (96 B) alongside 64 and 128 B, across two
// associativities. Every point must score, and each geometry's simulated
// element-wise hit rates must equal the reference LRU's on the same
// stream: EltwiseStream's two chained two-input passes over the class's
// aggregate working set (total bytes/3/2), re-emitted here address by
// address. At most 196,608 accesses, it ends before the access budget.
func TestEvaluateLineBytesAxis(t *testing.T) {
	g, err := Resolve(hwsim.RTX2080Ti, Space{
		LineBytes: Axis{Values: []float64{64, 96, 128}},
		Ways:      Axis{Values: []float64{4, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	for i := 0; i < 4; i++ {
		tr.Events = append(tr.Events, trace.Event{Seq: i, Kernel: "vectorized_elem", Phase: trace.Symbolic, FLOPs: 1 << 20, Bytes: 3 << 20})
	}
	e := NewEngine(g, tr)
	for i := 0; i < g.Size(); i++ {
		if res := e.Evaluate(i); res.Err != "" {
			t.Fatalf("point %d (%+v): %s", i, res.Knobs, res.Err)
		}
	}
	if len(e.profiles) != 6 {
		t.Fatalf("%d cache profiles, want 6", len(e.profiles))
	}
	ph, ci := trace.Symbolic, int(hwsim.ClassEltwise)
	for k, p := range e.profiles {
		l1 := newRefLRU(k.l1KB*1024, k.ways, k.lineBytes)
		l2 := newRefLRU(k.l2KB*1024, 16, k.lineBytes)
		access := func(addr uint64) {
			if !l1.access(addr) {
				l2.access(addr)
			}
		}
		ws := uint64(e.sig.classBytes[ph][ci] / 3 / 2)
		for pass := 0; pass < 2; pass++ {
			for off := uint64(0); off < ws; off += uint64(k.lineBytes) {
				for r := 0; r < 2; r++ {
					src := uint64(pass-r) << 40
					if pass-r < 0 {
						src = uint64(16+r) << 40
					}
					access(src + off)
				}
				access(uint64(pass+1)<<40 + off)
			}
		}
		if p.l1Hit[ph][ci] != l1.hitRate() || p.l2Hit[ph][ci] != l2.hitRate() {
			t.Errorf("geometry %+v: hit rates L1 %v L2 %v, reference L1 %v L2 %v",
				k, p.l1Hit[ph][ci], p.l2Hit[ph][ci], l1.hitRate(), l2.hitRate())
		}
	}
}

// TestSweepAtDeviceGeometryMatchesReport pins one cache model for reports
// and sweeps: for NVSA, PrAE and VSAIT on each modelled device, a
// one-point sweep at the device's own knobs scores every (phase, class)
// with exactly the L1/L2 hit rates hwsim.KernelStats gives that
// (phase, class)'s events, as core.Analyze groups them (Analyze places the
// GEMM and element-wise classes; the others are held to the same rule).
func TestSweepAtDeviceGeometryMatchesReport(t *testing.T) {
	labels := [5]string{
		hwsim.ClassGEMM:    "sgemm_nn",
		hwsim.ClassEltwise: "vectorized_elem",
		hwsim.ClassGather:  "gather",
		hwsim.ClassCopy:    "memcpy",
		hwsim.ClassOther:   "other",
	}
	for _, name := range []string{"NVSA", "PrAE", "VSAIT"} {
		w, err := core.BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.Execute(w, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range hwsim.AllDevices() {
			g, err := Resolve(d, Space{})
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(g, tr)
			sum, err := e.Sweep(context.Background(), 0, 1, nil)
			if err != nil || sum.Evaluated != 1 || sum.Failed != 0 {
				t.Fatalf("%s on %s: one-point sweep %+v, %v", name, d.Name, sum, err)
			}
			p := e.profiles[geomKey{d.L1KB, d.L2KB, 4, d.LineBytes}]
			if p == nil || len(e.profiles) != 1 {
				t.Fatalf("%s on %s: profiles %v miss the device's geometry", name, d.Name, e.profiles)
			}
			for _, ph := range trace.Phases() {
				for c, label := range labels {
					var evs []trace.Event
					for _, ev := range tr.Events {
						if ev.Phase == ph && hwsim.ClassifyKernel(ev.Kernel) == hwsim.KernelClass(c) {
							evs = append(evs, ev)
						}
					}
					if len(evs) == 0 {
						continue
					}
					ks := d.KernelStats(label, evs)
					if l1, l2 := 100*p.l1Hit[ph][c], 100*p.l2Hit[ph][c]; l1 != ks.L1HitRatePct || l2 != ks.L2HitRatePct {
						t.Errorf("%s on %s, %v %v: sweep L1 %v%% L2 %v%%, report L1 %v%% L2 %v%%",
							name, d.Name, ph, hwsim.KernelClass(c), l1, l2, ks.L1HitRatePct, ks.L2HitRatePct)
					}
				}
			}
		}
	}
}
