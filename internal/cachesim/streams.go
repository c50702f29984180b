package cachesim

import "math/rand"

// Synthetic address-stream generators, one per kernel class.
//
// Accesses are emitted at cache-line granularity, modelling the coalesced
// transactions of a GPU memory system (a warp's 32 adjacent 4-byte lanes
// form one line-sized transaction), so intra-line spatial reuse does not
// inflate hit rates. Distinct operands live in disjoint address regions.
// Every generator honours a maxAccesses budget: streams are sampled
// prefixes, which is sound because hit rates are rates, not totals.

// region returns the base address of operand i.
func region(i int) uint64 { return uint64(i) << 40 }

// GEMMStream emits the access pattern of a register-blocked i-k-j GEMM of
// an m×k by k×n product: each A element is read once; for every i the whole
// of B streams through the hierarchy; C is accumulated in registers and
// written once at the end of each row. This reproduces the signature GEMM
// cache behaviour: very low L1 hit rate (B exceeds L1 and is evicted every
// row) with a high L2 hit rate (B resident in L2), and little DRAM traffic
// relative to the FLOPs executed.
func GEMMStream(h *Hierarchy, m, k, n, elemSize, maxAccesses int) int {
	line := uint64(h.L1.LineSize())
	aBase, bBase, cBase := region(0), region(1), region(2)
	emitted := 0
	aRowBytes := uint64(k * elemSize)
	bRowBytes := uint64(n * elemSize)
	cRowBytes := uint64(n * elemSize)
	for i := 0; i < m; i++ {
		// A row, streamed once.
		for off := uint64(0); off < aRowBytes; off += line {
			h.Access(aBase + uint64(i)*aRowBytes + off)
			if emitted++; emitted >= maxAccesses {
				return emitted
			}
		}
		// All of B, streamed per output row.
		for p := 0; p < k; p++ {
			for off := uint64(0); off < bRowBytes; off += line {
				h.Access(bBase + uint64(p)*bRowBytes + off)
				if emitted++; emitted >= maxAccesses {
					return emitted
				}
			}
		}
		// C row written once (register accumulation).
		for off := uint64(0); off < cRowBytes; off += line {
			h.Access(cBase + uint64(i)*cRowBytes + off)
			if emitted++; emitted >= maxAccesses {
				return emitted
			}
		}
	}
	return emitted
}

// EltwiseStream emits the pattern of a chain of element-wise kernels over a
// shared working set: `passes` successive kernels, each reading `reads`
// operands and writing one output of wsBytes each. Consecutive passes reuse
// the previous pass's output (producer→consumer reuse), which is what gives
// symbolic element-wise pipelines their partial L2 hit rates while DRAM
// bandwidth stays saturated for working sets beyond L2.
//
// The unary read-modify-write special case (reads=1, output aliased with
// the input) models kernels like ReLU, whose write hits the line its read
// just fetched, yielding the characteristic ~50% L1 hit rate.
func EltwiseStream(h *Hierarchy, reads, passes int, wsBytes int64, inPlace bool, maxAccesses int) int {
	line := uint64(h.L1.LineSize())
	emitted := 0
	for pass := 0; pass < passes; pass++ {
		// Operand regions rotate so pass p reads pass p-1's output.
		outRegion := region(pass + 1)
		if inPlace {
			outRegion = region(pass)
		}
		for off := uint64(0); off < uint64(wsBytes); off += line {
			for r := 0; r < reads; r++ {
				src := region(pass - r)
				if pass-r < 0 {
					src = region(16 + r) // fresh inputs for the first passes
				}
				h.Access(src + off)
				if emitted++; emitted >= maxAccesses {
					return emitted
				}
			}
			h.Access(outRegion + off)
			if emitted++; emitted >= maxAccesses {
				return emitted
			}
		}
	}
	return emitted
}

// GatherStream emits `count` random line-granularity reads over a table of
// tableBytes plus a sequential write of the gathered output — the irregular
// pattern of symbolic lookups, codebook probes and sparse indexing.
func GatherStream(h *Hierarchy, tableBytes int64, count int, seed int64, maxAccesses int) int {
	line := uint64(h.L1.LineSize())
	lines := uint64(tableBytes) / line
	if lines == 0 {
		lines = 1
	}
	rng := rand.New(rand.NewSource(seed))
	table, out := region(0), region(1)
	emitted := 0
	for i := 0; i < count; i++ {
		h.Access(table + uint64(rng.Int63n(int64(lines)))*line)
		if emitted++; emitted >= maxAccesses {
			return emitted
		}
		// Output written sequentially, one line per gathered row batch.
		h.Access(out + uint64(i)*line/4)
		if emitted++; emitted >= maxAccesses {
			return emitted
		}
	}
	return emitted
}
