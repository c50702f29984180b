package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCache is the straightforward tick-stamped LRU cache — per-way
// recency counters, a way scan for the victim and divisions for the
// address split — kept as the reference the recency-ordered Cache is
// checked against.
type refCache struct {
	name     string
	lineSize int
	sets     int
	ways     int
	// tags[set][way] holds line tags; lru[set][way] holds recency counters.
	tags [][]uint64
	lru  [][]uint64
	tick uint64

	Accesses uint64
	Misses   uint64
}

func newRefCache(name string, sizeBytes, ways, lineSize int) *refCache {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cachesim: non-positive cache geometry")
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 {
		sets = 1
	}
	c := &refCache{
		name:     name,
		lineSize: lineSize,
		sets:     sets,
		ways:     ways,
		tags:     make([][]uint64, sets),
		lru:      make([][]uint64, sets),
	}
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.lru[i] = make([]uint64, ways)
		for w := range c.tags[i] {
			c.tags[i][w] = ^uint64(0) // invalid
		}
	}
	return c
}

func (c *refCache) Access(addr uint64) bool {
	c.tick++
	c.Accesses++
	line := addr / uint64(c.lineSize)
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	ways := c.tags[set]
	for w, t := range ways {
		if t == tag {
			c.lru[set][w] = c.tick
			return true
		}
	}
	c.Misses++
	// Replace the least recently used way.
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	ways[victim] = tag
	c.lru[set][victim] = c.tick
	return false
}

func (c *refCache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return 1 - float64(c.Misses)/float64(c.Accesses)
}

// refHierarchy mirrors Hierarchy over reference caches.
type refHierarchy struct {
	L1, L2    *refCache
	DRAMBytes uint64
}

func (h *refHierarchy) Access(addr uint64) {
	if h.L1.Access(addr) {
		return
	}
	if h.L2.Access(addr) {
		return
	}
	h.DRAMBytes += uint64(h.L2.lineSize)
}

func (h *refHierarchy) Stats() Stats {
	return Stats{
		L1Accesses: h.L1.Accesses,
		L2Accesses: h.L2.Accesses,
		L1HitRate:  h.L1.HitRate(),
		L2HitRate:  h.L2.HitRate(),
		DRAMBytes:  h.DRAMBytes,
	}
}

// diffStream builds an address stream mixing the generators' shapes:
// sequential line sweeps over several regions (one operand each, as in
// EltwiseStream/GEMMStream), uniformly random gathers over a table, and
// interleavings of the two. Addresses are not line-aligned, so the split
// of an address into line, set and tag is exercised at every offset.
func diffStream(rng *rand.Rand, line, n int) []uint64 {
	addrs := make([]uint64, 0, n)
	for len(addrs) < n {
		span := uint64(rng.Intn(64*1024) + line)
		switch rng.Intn(3) {
		case 0: // multi-region sequential sweep
			regions := rng.Intn(4) + 1
			for off := uint64(0); off < span && len(addrs) < n; off += uint64(line) {
				for r := 0; r < regions && len(addrs) < n; r++ {
					addrs = append(addrs, region(r)+off+uint64(rng.Intn(line)))
				}
			}
		case 1: // random gather
			for i := rng.Intn(512) + 1; i > 0 && len(addrs) < n; i-- {
				addrs = append(addrs, region(0)+uint64(rng.Int63n(int64(span))))
			}
		default: // sweep interleaved with gathers
			for off := uint64(0); off < span && len(addrs) < n; off += uint64(line) {
				addrs = append(addrs, region(1)+off)
				if rng.Intn(2) == 0 && len(addrs) < n {
					addrs = append(addrs, region(2)+uint64(rng.Int63n(int64(span))))
				}
			}
		}
	}
	return addrs
}

// TestCacheMatchesReference checks the recency-ordered Cache against the
// tick-stamped reference access by access — hit/miss of each level — and
// on the final Stats, also of the stream replayed through
// Hierarchy.Access on a clone, over associativities 1–16, power-of-two and other
// set counts (96 as in the TX2 L1, 2816 as in the RTX 2080 Ti L2), and
// 64-, 96- and 128-byte lines.
func TestCacheMatchesReference(t *testing.T) {
	lines := []int{64, 96, 128}
	setCounts := []int{1, 2, 7, 64, 96, 256, 2816}
	prop := func(ways8, sets8, line8 uint8, seed int64) bool {
		ways := int(ways8%16) + 1
		line := lines[int(line8)%len(lines)]
		sets1 := setCounts[int(sets8)%len(setCounts)]
		sets2 := setCounts[int(sets8/7)%len(setCounts)]
		ways2 := 16 - ways + 1
		h := NewHierarchy(NewCache("L1", sets1*ways*line, ways, line), NewCache("L2", sets2*ways2*line, ways2, line))
		ref := &refHierarchy{L1: newRefCache("L1", sets1*ways*line, ways, line), L2: newRefCache("L2", sets2*ways2*line, ways2, line)}
		replay := h.Clone()
		addrs := diffStream(rand.New(rand.NewSource(seed)), line, 20000)
		for i, a := range addrs {
			l1, l1ref := h.L1.Access(a), ref.L1.Access(a)
			if l1 != l1ref {
				t.Errorf("ways %d sets %d line %d: access %d (%#x): L1 hit %v, reference %v", ways, sets1, line, i, a, l1, l1ref)
				return false
			}
			if l1 {
				continue
			}
			l2, l2ref := h.L2.Access(a), ref.L2.Access(a)
			if l2 != l2ref {
				t.Errorf("ways %d sets %d line %d: access %d (%#x): L2 hit %v, reference %v", ways2, sets2, line, i, a, l2, l2ref)
				return false
			}
			if !l2 {
				h.DRAMBytes += uint64(line)
				ref.DRAMBytes += uint64(line)
			}
		}
		for _, a := range addrs {
			replay.Access(a)
		}
		want := ref.Stats()
		for _, got := range []Stats{h.Stats(), replay.Stats()} {
			if got != want {
				t.Errorf("Stats = %+v, reference %+v", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}
