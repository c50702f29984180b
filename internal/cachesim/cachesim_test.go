package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallHierarchy() *Hierarchy {
	return NewHierarchy(
		NewCache("L1", 4*1024, 4, 64),
		NewCache("L2", 64*1024, 8, 64),
	)
}

func TestCacheHitOnRepeat(t *testing.T) {
	c := NewCache("L1", 1024, 2, 64)
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("repeat access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access must hit")
	}
	if c.Access(64) {
		t.Fatal("next line must miss")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 64B lines, 2 sets (256B total). Lines 0, 2, 4 map to set 0.
	c := NewCache("L1", 256, 2, 64)
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // refresh line 0
	c.Access(4 * 64) // evicts line 2 (LRU)
	if !c.Access(0 * 64) {
		t.Fatal("line 0 should have been retained")
	}
	if c.Access(2 * 64) {
		t.Fatal("line 2 should have been evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("L1", 1024, 2, 64)
	c.Access(0)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("Reset must clear counters")
	}
	if c.Access(0) {
		t.Fatal("Reset must clear contents")
	}
}

func TestHierarchyPropagation(t *testing.T) {
	h := smallHierarchy()
	h.Access(0) // miss L1, miss L2, DRAM
	if h.DRAMBytes != 64 {
		t.Fatalf("DRAMBytes = %d", h.DRAMBytes)
	}
	h.Access(0) // L1 hit; nothing below
	if h.L2.Accesses != 1 {
		t.Fatalf("L2 accesses = %d", h.L2.Accesses)
	}
	st := h.Stats()
	if st.L1Accesses != 2 || st.L1HitRate != 0.5 {
		t.Fatalf("Stats = %+v", st)
	}
	h.Reset()
	if h.DRAMBytes != 0 || h.L1.Accesses != 0 {
		t.Fatal("hierarchy Reset incomplete")
	}
}

func TestL2CapturesL1Evictions(t *testing.T) {
	h := smallHierarchy()
	// Working set of 32 KB: far beyond L1 (4 KB), fits L2 (64 KB).
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < 32*1024; off += 64 {
			h.Access(off)
		}
	}
	st := h.Stats()
	if st.L1HitRate > 0.1 {
		t.Fatalf("L1 hit rate should be ~0 for streaming, got %v", st.L1HitRate)
	}
	if st.L2HitRate < 0.7 {
		t.Fatalf("L2 should capture the reuse, hit rate = %v", st.L2HitRate)
	}
}

func TestGEMMStreamSignature(t *testing.T) {
	// GEMM whose B matrix exceeds L1 but fits L2: the classic low-L1 /
	// high-L2 signature from the paper's Table IV.
	h := smallHierarchy()
	GEMMStream(h, 32, 32, 64, 4, 1<<20)
	st := h.Stats()
	if st.L1HitRate > 0.2 {
		t.Fatalf("GEMM L1 hit rate should be low, got %v", st.L1HitRate)
	}
	if st.L2HitRate < 0.6 {
		t.Fatalf("GEMM L2 hit rate should be high, got %v", st.L2HitRate)
	}
}

func TestEltwiseInPlaceHitRate(t *testing.T) {
	// Unary in-place kernels: read misses, write hits → ~50% L1.
	h := smallHierarchy()
	EltwiseStream(h, 1, 1, 256*1024, true, 1<<20)
	st := h.Stats()
	if st.L1HitRate < 0.45 || st.L1HitRate > 0.55 {
		t.Fatalf("in-place eltwise L1 hit rate = %v, want ~0.5", st.L1HitRate)
	}
}

func TestEltwiseStreamingDRAMBound(t *testing.T) {
	// Binary streaming over a working set far beyond L2: nearly all
	// traffic reaches DRAM.
	h := smallHierarchy()
	EltwiseStream(h, 2, 1, 1<<20, false, 1<<21)
	st := h.Stats()
	if st.L1HitRate > 0.1 {
		t.Fatalf("streaming L1 hit rate = %v", st.L1HitRate)
	}
	frac := float64(st.DRAMBytes) / float64(st.L1Accesses*64)
	if frac < 0.9 {
		t.Fatalf("DRAM fraction = %v, want ~1", frac)
	}
}

func TestEltwiseChainProducerConsumerReuse(t *testing.T) {
	// Chained passes over a set that fits L2: later passes hit in L2.
	// Analytically, with P passes each reading the previous output and
	// writing a fresh region, (P-1) of the 2P line touches hit: 0.375 at P=4.
	h := smallHierarchy()
	EltwiseStream(h, 1, 4, 16*1024, false, 1<<20)
	st := h.Stats()
	if st.L2HitRate < 0.35 {
		t.Fatalf("chained eltwise should reuse via L2, hit rate = %v", st.L2HitRate)
	}
	// A single pass over fresh data has no such reuse.
	h2 := smallHierarchy()
	EltwiseStream(h2, 1, 1, 16*1024, false, 1<<20)
	if one := h2.Stats().L2HitRate; one >= st.L2HitRate {
		t.Fatalf("single pass L2 hit %v should be below chained %v", one, st.L2HitRate)
	}
}

func TestGatherStreamIrregular(t *testing.T) {
	h := smallHierarchy()
	// Table far larger than L2: random gathers mostly miss everywhere.
	GatherStream(h, 8<<20, 4096, 1, 1<<20)
	st := h.Stats()
	if st.L1HitRate > 0.5 {
		t.Fatalf("gather L1 hit rate = %v", st.L1HitRate)
	}
	if st.DRAMBytes == 0 {
		t.Fatal("gather should reach DRAM")
	}
}

func TestStreamBudgetsRespected(t *testing.T) {
	h := smallHierarchy()
	n := GEMMStream(h, 1000, 1000, 1000, 4, 1000)
	if n != 1000 {
		t.Fatalf("GEMMStream emitted %d, budget 1000", n)
	}
	h.Reset()
	n = EltwiseStream(h, 2, 10, 1<<20, false, 500)
	if n != 500 {
		t.Fatalf("EltwiseStream emitted %d", n)
	}
	h.Reset()
	n = GatherStream(h, 1<<20, 1<<20, 1, 200)
	if n != 200 {
		t.Fatalf("GatherStream emitted %d", n)
	}
}

func TestPropHitRateBounds(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewCache("t", 512, 2, 32)
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		hr := c.HitRate()
		return hr >= 0 && hr <= 1
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropLargerCacheNeverWorse(t *testing.T) {
	// Hit-rate monotonicity over repeated scans: a larger cache must not
	// have a lower hit rate on cyclic streaming patterns.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := uint64(1+rng.Intn(64)) * 1024
		small := NewCache("s", 2*1024, 4, 64)
		large := NewCache("l", 128*1024, 4, 64)
		for pass := 0; pass < 3; pass++ {
			for off := uint64(0); off < ws; off += 64 {
				small.Access(off)
				large.Access(off)
			}
		}
		return large.HitRate() >= small.HitRate()-1e-12
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
