// Package cachesim implements a set-associative LRU cache hierarchy
// simulator plus synthetic per-kernel address-stream generators.
//
// It stands in for the Nsight cache counters of the original study: each
// operator class (tiled GEMM, streaming element-wise, irregular gather)
// generates a characteristic address stream; running the stream through a
// two-level hierarchy yields the L1/L2 hit rates and DRAM traffic the
// Table-IV analysis reports.
package cachesim

import "math/bits"

// Cache is one set-associative level with LRU replacement.
type Cache struct {
	name     string
	lineSize int
	sets     int
	ways     int
	// Address split: when lineSize (sets) is a power of two, lineShift
	// (setShift) is its log2 and the line index (set, tag) come from
	// shifts and masks; otherwise from division.
	linePow2, setsPow2  bool
	lineShift, setShift uint
	// tags holds sets×ways line tags. Each set's ways are kept in recency
	// order: tags[s*ways] is the most recently used line of set s and
	// tags[s*ways+ways-1] the LRU victim.
	tags []uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size (bytes), associativity
// and line size. Size must be a multiple of ways*lineSize.
func NewCache(name string, sizeBytes, ways, lineSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cachesim: non-positive cache geometry")
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 {
		sets = 1
	}
	c := &Cache{
		name:      name,
		lineSize:  lineSize,
		sets:      sets,
		ways:      ways,
		linePow2:  bits.OnesCount(uint(lineSize)) == 1,
		setsPow2:  bits.OnesCount(uint(sets)) == 1,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		tags:      make([]uint64, sets*ways),
	}
	c.invalidate()
	return c
}

// invalidate marks every way of every set empty.
func (c *Cache) invalidate() {
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Access touches the line containing addr. It returns true on hit. On miss
// the line is installed with LRU replacement.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	var line, set, tag uint64
	if c.linePow2 {
		line = addr >> c.lineShift
	} else {
		line = addr / uint64(c.lineSize)
	}
	if c.setsPow2 {
		set, tag = line&(uint64(c.sets)-1), line>>c.setShift
	} else {
		tag = line / uint64(c.sets)
		set = line - tag*uint64(c.sets)
	}
	base := int(set) * c.ways
	ways := c.tags[base : base+c.ways]
	// One pass moves the line to the front of the recency order: each way
	// takes its predecessor's tag until the line's own way is reached (a
	// hit), or the whole set has shifted and the last way's tag, the LRU
	// victim, has dropped out (a miss).
	prev := tag
	for w, cur := range ways {
		ways[w] = prev
		if cur == tag {
			return true
		}
		prev = cur
	}
	c.Misses++
	return false
}

// Clone returns a fresh cache with the same geometry and empty contents
// and counters. Concurrent simulations must not share a Cache (Access
// mutates tags, recency order and counters on every call); cloning the
// geometry gives each goroutine its own state.
func (c *Cache) Clone() *Cache {
	return NewCache(c.name, c.sets*c.ways*c.lineSize, c.ways, c.lineSize)
}

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return 1 - float64(c.Misses)/float64(c.Accesses)
}

// Reset clears statistics and contents.
func (c *Cache) Reset() {
	c.invalidate()
	c.Accesses, c.Misses = 0, 0
}

// Hierarchy is an inclusive two-level cache hierarchy in front of DRAM.
type Hierarchy struct {
	L1, L2 *Cache
	// DRAMBytes accumulates the traffic that missed in L2.
	DRAMBytes uint64
}

// NewHierarchy builds a two-level hierarchy.
func NewHierarchy(l1, l2 *Cache) *Hierarchy {
	if l1.lineSize > l2.lineSize {
		panic("cachesim: L1 line larger than L2 line")
	}
	return &Hierarchy{L1: l1, L2: l2}
}

// Access touches addr at L1; misses propagate to L2 and then DRAM.
func (h *Hierarchy) Access(addr uint64) {
	if h.L1.Access(addr) {
		return
	}
	if h.L2.Access(addr) {
		return
	}
	h.DRAMBytes += uint64(h.L2.lineSize)
}

// Clone returns a fresh hierarchy with the same L1/L2 geometry and empty
// contents and counters. A Hierarchy is not safe for concurrent use; sweep
// shards that replay the same access stream in parallel clone one
// prototype hierarchy per goroutine instead of sharing mutable cache
// state.
func (h *Hierarchy) Clone() *Hierarchy {
	return NewHierarchy(h.L1.Clone(), h.L2.Clone())
}

// Stats summarizes a simulated stream.
type Stats struct {
	L1Accesses, L2Accesses uint64
	L1HitRate, L2HitRate   float64
	DRAMBytes              uint64
}

// Stats returns current statistics.
func (h *Hierarchy) Stats() Stats {
	return Stats{
		L1Accesses: h.L1.Accesses,
		L2Accesses: h.L2.Accesses,
		L1HitRate:  h.L1.HitRate(),
		L2HitRate:  h.L2.HitRate(),
		DRAMBytes:  h.DRAMBytes,
	}
}

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.DRAMBytes = 0
}
