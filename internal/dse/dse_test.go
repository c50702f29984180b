package dse

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
)

func TestAxisResolve(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }
	cases := []struct {
		name string
		axis Axis
		base float64
		want []float64
		err  string
	}{
		{"unset pins base", Axis{}, 42, []float64{42}, ""},
		{"explicit values", Axis{Values: []float64{3, 1, 2}}, 0, []float64{3, 1, 2}, ""},
		{"linear range", Axis{Min: 0, Max: 10, Steps: 5}, 0, []float64{0, 2.5, 5, 7.5, 10}, ""},
		{"log range", Axis{Min: 1, Max: 8, Steps: 4, Log: true}, 0, []float64{1, 2, 4, 8}, ""},
		{"steps=1 degenerates to min", Axis{Min: 7, Max: 9, Steps: 1}, 0, []float64{7}, ""},
		{"values exclude range", Axis{Values: []float64{1}, Steps: 2}, 0, nil, "mutually exclusive"},
		{"range without steps", Axis{Min: 1, Max: 2}, 0, nil, "without steps"},
		{"negative steps", Axis{Min: 1, Max: 2, Steps: -3}, 0, nil, "must be positive"},
		{"max not above min", Axis{Min: 5, Max: 5, Steps: 2}, 0, nil, "max > min"},
		{"log needs positive min", Axis{Min: 0, Max: 8, Steps: 3, Log: true}, 0, nil, "min > 0"},
	}
	for _, tc := range cases {
		got, err := materialize(tc.axis.resolve("x", tc.base))
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}

	// Endpoints of a log range are pinned exactly, not within an ulp.
	vals, err := materialize(Axis{Min: 60, Max: 1200, Steps: 4, Log: true}.resolve("bw", 0))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 60 || vals[3] != 1200 {
		t.Fatalf("log endpoints not pinned: %v", vals)
	}
}

// materialize lists a resolved axis's values.
func materialize(g axisGrid, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.len())
	for i := range out {
		out[i] = g.at(i)
	}
	return out, nil
}

// materializedRange is the range expansion Resolve used before range axes
// stayed unmaterialized, kept as the reference their values must match.
func materializedRange(a Axis) []float64 {
	out := make([]float64, a.Steps)
	for i := range out {
		t := float64(i) / float64(a.Steps-1)
		if a.Log {
			out[i] = a.Min * math.Exp(t*math.Log(a.Max/a.Min))
		} else {
			out[i] = a.Min + t*(a.Max-a.Min)
		}
	}
	out[a.Steps-1] = a.Max
	return out
}

// Knobs computes each range value on demand; it must produce the bits
// the materialized expansion produced, endpoints included, for linear and
// log axes alike.
func TestKnobsMatchMaterializedAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		lo := math.Exp(rng.Float64()*20 - 10)
		peak := Axis{Min: lo, Max: lo * (1 + rng.Float64()*1000), Steps: 2 + rng.Intn(60), Log: rng.Intn(2) == 0}
		lo = rng.Float64() * 100
		bw := Axis{Min: lo, Max: lo + 1 + rng.Float64()*5000, Steps: 2 + rng.Intn(20), Log: rng.Intn(2) == 0}
		g, err := Resolve(hwsim.RTX2080Ti, Space{PeakGFLOPs: peak, MemBWGBs: bw})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantPeak, wantBW := materializedRange(peak), materializedRange(bw)
		if g.Size() != len(wantPeak)*len(wantBW) {
			t.Fatalf("trial %d: size %d, want %d", trial, g.Size(), len(wantPeak)*len(wantBW))
		}
		for i := 0; i < g.Size(); i++ {
			k := g.Knobs(i)
			p, b := wantPeak[i/len(wantBW)], wantBW[i%len(wantBW)]
			if math.Float64bits(k.PeakGFLOPs) != math.Float64bits(p) || math.Float64bits(k.MemBWGBs) != math.Float64bits(b) {
				t.Fatalf("trial %d index %d: knobs (%v, %v), materialized (%v, %v)", trial, i, k.PeakGFLOPs, k.MemBWGBs, p, b)
			}
		}
	}
}

// A product of axis sizes that overflows int is an error, not a grid that
// wraps to a small (here zero) size.
func TestResolveRejectsOverflowingGrid(t *testing.T) {
	ax := Axis{Min: 1, Max: 2, Steps: 256}
	space := Space{PeakGFLOPs: ax, MemBWGBs: ax, PEs: ax, FreqScale: ax, DataflowEff: ax, L1KB: ax, L2KB: ax, Ways: ax, LineBytes: ax}
	if g, err := Resolve(hwsim.RTX2080Ti, space); err == nil {
		t.Fatalf("256^9-point space resolved to size %d, want an error", g.Size())
	}
	// Seven such axes fit in an int; the grid stays unmaterialized.
	space.Ways, space.LineBytes = Axis{}, Axis{}
	g, err := Resolve(hwsim.RTX2080Ti, space)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1<<56 {
		t.Fatalf("size = %d, want 2^56", g.Size())
	}
	if k := g.Knobs(g.Size() - 1); k.PeakGFLOPs != 2 || k.L2KB != 2 {
		t.Fatalf("last point = %+v, want every swept knob at its max", k)
	}
}

func TestResolveGridEnumeration(t *testing.T) {
	base := hwsim.RTX2080Ti
	space := Space{
		PeakGFLOPs: Axis{Values: []float64{1000, 2000, 4000}},
		L1KB:       Axis{Values: []float64{64, 128}},
	}
	g, err := Resolve(base, space)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 {
		t.Fatalf("grid size = %d, want 6", g.Size())
	}
	// Row-major: the first axis (peak_gflops) varies slowest.
	wantPeak := []float64{1000, 1000, 2000, 2000, 4000, 4000}
	wantL1 := []int{64, 128, 64, 128, 64, 128}
	for i := 0; i < g.Size(); i++ {
		k := g.Knobs(i)
		if k.PeakGFLOPs != wantPeak[i] || k.L1KB != wantL1[i] {
			t.Fatalf("index %d: knobs %+v, want peak %v l1 %v", i, k, wantPeak[i], wantL1[i])
		}
		// Unswept knobs pin the base device / canonical defaults.
		if k.MemBWGBs != base.MemBWGBs || k.PEs != 1 || k.FreqScale != 1 ||
			k.DataflowEff != 1 || k.L2KB != base.L2KB || k.Ways != 4 || k.LineBytes != base.LineBytes {
			t.Fatalf("index %d: unswept knobs not pinned to base: %+v", i, k)
		}
	}
}

func TestResolveRejectsBadBase(t *testing.T) {
	bad := hwsim.RTX2080Ti
	bad.MemBWGBs = 0
	if _, err := Resolve(bad, Space{}); err == nil || !strings.Contains(err.Error(), "base device") {
		t.Fatalf("Resolve with invalid base: err = %v", err)
	}
}

func TestGridKnobsPanicsOutOfRange(t *testing.T) {
	g, err := Resolve(hwsim.RTX2080Ti, Space{})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, g.Size()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Knobs(%d) did not panic", idx)
				}
			}()
			g.Knobs(idx)
		}()
	}
}

func TestKnobsDeviceDerivation(t *testing.T) {
	base := hwsim.RTX2080Ti
	k := Knobs{
		PeakGFLOPs: 2000, MemBWGBs: 300, PEs: 2, FreqScale: 1.5, DataflowEff: 1,
		L1KB: 128, L2KB: 4096, Ways: 8, LineBytes: 64,
	}
	d, err := k.Device(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.PeakFP32GFLOPs, 2000*2*1.5; got != want {
		t.Errorf("PeakFP32GFLOPs = %v, want %v (peak x PEs x freq)", got, want)
	}
	if d.MemBWGBs != 300 {
		t.Errorf("MemBWGBs = %v, want 300 (separate clock domain)", d.MemBWGBs)
	}
	if got, want := d.L1BWGBs, base.L1BWGBs*2*1.5; got != want {
		t.Errorf("L1BWGBs = %v, want %v", got, want)
	}
	if got, want := d.L2BWGBs, base.L2BWGBs*1.5; got != want {
		t.Errorf("L2BWGBs = %v, want %v (freq only, not PEs)", got, want)
	}
	if got, want := d.LaunchUs, base.LaunchUs/1.5; got != want {
		t.Errorf("LaunchUs = %v, want %v", got, want)
	}
	if d.L1KB != 128 || d.L2KB != 4096 || d.LineBytes != 64 {
		t.Errorf("cache geometry not applied: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("derived device invalid: %v", err)
	}

	// DataflowEff scales efficiencies but clamps at 1.
	k.DataflowEff = 10
	d, err = k.Device(base)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]float64{
		{d.EffGEMM, base.EffGEMM}, {d.EffEltwise, base.EffEltwise},
		{d.EffGather, base.EffGather}, {d.EffOther, base.EffOther},
	}
	for _, p := range pairs {
		if want := math.Min(1, p[1]*10); p[0] != want {
			t.Errorf("eff with DataflowEff=10: got %v, want min(1, %v*10) = %v", p[0], p[1], want)
		}
	}

	// TDP tracks the area proxy: doubling compute area raises TDP.
	big := Knobs{PeakGFLOPs: 2 * base.PeakFP32GFLOPs, MemBWGBs: base.MemBWGBs,
		PEs: 1, FreqScale: 1, DataflowEff: 1,
		L1KB: base.L1KB, L2KB: base.L2KB, Ways: 4, LineBytes: base.LineBytes}
	bd, err := big.Device(base)
	if err != nil {
		t.Fatal(err)
	}
	if bd.TDPWatts <= base.TDPWatts {
		t.Errorf("TDP %v should exceed base %v for a bigger chip", bd.TDPWatts, base.TDPWatts)
	}
}

func TestKnobsDeviceDegenerateCorners(t *testing.T) {
	base := hwsim.RTX2080Ti
	ok := Knobs{PeakGFLOPs: 1000, MemBWGBs: 100, PEs: 1, FreqScale: 1, DataflowEff: 1,
		L1KB: 64, L2KB: 2048, Ways: 4, LineBytes: 64}
	mutate := []struct {
		name string
		mut  func(k *Knobs)
		want string
	}{
		{"zero PEs", func(k *Knobs) { k.PEs = 0 }, "pes"},
		{"negative freq", func(k *Knobs) { k.FreqScale = -1 }, "freq_scale"},
		{"NaN dataflow", func(k *Knobs) { k.DataflowEff = math.NaN() }, "dataflow_eff"},
		{"zero peak", func(k *Knobs) { k.PeakGFLOPs = 0 }, "PeakFP32GFLOPs"},
		{"negative bw", func(k *Knobs) { k.MemBWGBs = -5 }, "MemBWGBs"},
		{"zero L1", func(k *Knobs) { k.L1KB = 0 }, "L1KB"},
		{"zero ways", func(k *Knobs) { k.Ways = 0 }, "cache_ways"},
		{"zero line", func(k *Knobs) { k.LineBytes = 0 }, "LineBytes"},
	}
	if _, err := ok.Device(base); err != nil {
		t.Fatalf("baseline knobs should derive cleanly: %v", err)
	}
	for _, m := range mutate {
		k := ok
		m.mut(&k)
		_, err := k.Device(base)
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: err = %v, want mention of %q", m.name, err, m.want)
		}
	}
}

func TestDefaultSpaceResolves(t *testing.T) {
	g, err := Resolve(hwsim.RTX2080Ti, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 256 {
		t.Fatalf("default space size = %d, want 256", g.Size())
	}
	// Every default-space point must derive a valid device: the stock sweep
	// has no degenerate corners.
	for i := 0; i < g.Size(); i++ {
		if _, err := g.Knobs(i).Device(g.Base()); err != nil {
			t.Fatalf("default point %d fails derivation: %v", i, err)
		}
	}
}
