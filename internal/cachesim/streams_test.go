package cachesim

import "testing"

// streamsHierarchy is small enough that the generators exercise both
// capacity misses (B exceeds L1) and residency (weights fit everywhere).
func streamsHierarchy() *Hierarchy {
	return NewHierarchy(
		NewCache("L1", 16*1024, 4, 64),
		NewCache("L2", 256*1024, 16, 64),
	)
}

// TestStreamsDeterministic pins that every generator is a pure function
// of its arguments: the same call on an identically configured hierarchy
// emits the same number of accesses and produces identical statistics.
// GatherStream's randomness comes from an explicit seed, so it is covered
// by the same property.
func TestStreamsDeterministic(t *testing.T) {
	runs := []struct {
		name string
		gen  func(h *Hierarchy) int
	}{
		{"gemm", func(h *Hierarchy) int { return GEMMStream(h, 24, 24, 24, 4, 1<<14) }},
		{"eltwise", func(h *Hierarchy) int { return EltwiseStream(h, 2, 3, 1<<15, false, 1<<14) }},
		{"eltwise-inplace", func(h *Hierarchy) int { return EltwiseStream(h, 1, 2, 1<<14, true, 1<<14) }},
		{"gather", func(h *Hierarchy) int { return GatherStream(h, 1<<18, 1024, 7, 1<<14) }},
	}
	for _, run := range runs {
		h1, h2 := streamsHierarchy(), streamsHierarchy()
		n1, n2 := run.gen(h1), run.gen(h2)
		if n1 != n2 {
			t.Fatalf("%s: emitted %d then %d accesses", run.name, n1, n2)
		}
		if n1 == 0 {
			t.Fatalf("%s: emitted no accesses", run.name)
		}
		if h1.Stats() != h2.Stats() {
			t.Fatalf("%s: stats diverged: %v vs %v", run.name, h1.Stats(), h2.Stats())
		}
	}
}

// TestStreamsReplayIdempotentAfterReset pins that Reset fully clears the
// hierarchy: replaying the same stream after a Reset reproduces the first
// replay's statistics exactly (no contents or counters leak through).
func TestStreamsReplayIdempotentAfterReset(t *testing.T) {
	h := streamsHierarchy()
	GEMMStream(h, 32, 32, 32, 4, 1<<14)
	GatherStream(h, 1<<19, 512, 3, 1<<13)
	first := h.Stats()

	h.Reset()
	if h.Stats() != (Stats{}) {
		t.Fatalf("Reset left residual stats: %v", h.Stats())
	}
	GEMMStream(h, 32, 32, 32, 4, 1<<14)
	GatherStream(h, 1<<19, 512, 3, 1<<13)
	if h.Stats() != first {
		t.Fatalf("replay after Reset diverged: %v vs %v", h.Stats(), first)
	}
	// Without a Reset the second replay sees warm caches, so the pinned
	// property is specifically about Reset, not about replay in general.
	GEMMStream(h, 32, 32, 32, 4, 1<<14)
	if h.L1.HitRate() <= first.L1HitRate {
		t.Fatalf("warm replay should raise the L1 hit rate: %v <= %v", h.L1.HitRate(), first.L1HitRate)
	}
}

// TestStreamHitRateStability pins the qualitative cache signatures the
// kernel-stats model depends on, and that they are stable across repeated
// Reset/replay cycles.
func TestStreamHitRateStability(t *testing.T) {
	h := streamsHierarchy()
	var prev Stats
	for i := 0; i < 3; i++ {
		h.Reset()
		// B is 24KB (96x64x4): exceeds the 16KB L1 (evicted every row) but
		// is L2-resident, the signature GEMM shape.
		GEMMStream(h, 64, 96, 64, 4, 1<<20)
		st := h.Stats()
		if i > 0 && st != prev {
			t.Fatalf("cycle %d: stats drifted: %v vs %v", i, st, prev)
		}
		prev = st
		if st.L2HitRate < 0.5 {
			t.Fatalf("GEMM L2 hit rate %.2f, want B resident in L2 (> 0.5)", st.L2HitRate)
		}
		if st.L1HitRate > st.L2HitRate {
			t.Fatalf("GEMM L1 hit rate %.2f above L2 %.2f — B should thrash L1", st.L1HitRate, st.L2HitRate)
		}
	}

	// The in-place unary eltwise signature: each line is fetched once and
	// immediately re-hit by the write, giving ~50% L1 hits.
	h.Reset()
	EltwiseStream(h, 1, 1, 1<<20, true, 1<<20)
	if r := h.Stats().L1HitRate; r < 0.45 || r > 0.55 {
		t.Fatalf("in-place unary eltwise L1 hit rate %.2f, want ~0.5", r)
	}

	// Gather over a table far beyond L2 mostly misses everywhere.
	h.Reset()
	GatherStream(h, 1<<26, 4096, 11, 1<<14)
	if r := h.Stats().L2HitRate; r > 0.3 {
		t.Fatalf("gather over a 64MB table L2 hit rate %.2f, want mostly misses", r)
	}
}

// TestStreamsHonourBudget pins the maxAccesses contract: generators stop
// at the budget and report exactly how many accesses they emitted.
func TestStreamsHonourBudget(t *testing.T) {
	const budget = 100
	h := streamsHierarchy()
	if n := GEMMStream(h, 1<<10, 1<<10, 1<<10, 4, budget); n != budget {
		t.Fatalf("GEMMStream emitted %d, budget %d", n, budget)
	}
	if h.L1.Accesses != budget {
		t.Fatalf("hierarchy saw %d accesses, budget %d", h.L1.Accesses, budget)
	}
	h.Reset()
	if n := EltwiseStream(h, 3, 5, 1<<20, false, budget); n != budget {
		t.Fatalf("EltwiseStream emitted %d, budget %d", n, budget)
	}
	h.Reset()
	if n := GatherStream(h, 1<<20, 1<<20, 1, budget); n != budget {
		t.Fatalf("GatherStream emitted %d, budget %d", n, budget)
	}
	// A generous budget is not a target: short streams end early.
	h.Reset()
	if n := GEMMStream(h, 2, 2, 2, 4, 1<<20); n >= 1<<20 || n == 0 {
		t.Fatalf("tiny GEMM emitted %d accesses", n)
	}
}
