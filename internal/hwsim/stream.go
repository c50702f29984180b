package hwsim

import (
	"math"
	"sync"

	"github.com/neurosym/nsbench/internal/cachesim"
)

// CacheGeometry is the shape of a two-level cache hierarchy: all a
// representative stream's hit rates depend on besides the stream itself.
type CacheGeometry struct {
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	LineBytes       int
}

// Geometry returns the device's cache hierarchy: a 4-way L1 and a 16-way
// L2 of its sizes and line.
func (d Device) Geometry() CacheGeometry {
	return CacheGeometry{L1Bytes: d.L1KB * 1024, L1Ways: 4, L2Bytes: d.L2KB * 1024, L2Ways: 16, LineBytes: d.LineBytes}
}

// StreamModel holds the free parameters of the mapping from a kernel
// class's events to its representative cache stream.
type StreamModel struct {
	// Budget caps each stream's accesses; hit rates converge before it.
	Budget int
	// MeanEltwiseSet sizes the element-wise working set from the mean
	// event's traffic split over its operands, instead of half the class's
	// aggregate traffic split over them.
	MeanEltwiseSet bool
	// UnaryInPlace runs unary element-wise kernels (relu_nn, elementwise,
	// softmax, reduce, pool) as one read updated in place.
	UnaryInPlace bool
}

// kernelStatsModel is the stream model behind KernelStats.
var kernelStatsModel = StreamModel{Budget: 1 << 21, UnaryInPlace: true}

// streamKind selects the cachesim generator of a stream. Copies are
// one-read, one-pass element-wise streams.
type streamKind uint8

const (
	streamGEMM streamKind = iota
	streamEltwise
	streamGather
)

// StreamSpec fully determines one representative stream: the hierarchy it
// runs on, the generator and every generator argument. It is comparable,
// and equal specs simulate to equal stats, which is what lets Stats
// memoize by spec.
type StreamSpec struct {
	geom   CacheGeometry
	kind   streamKind
	budget int

	reads, passes int   // element-wise
	inPlace       bool  // element-wise
	set           int64 // element-wise working set, bytes
	dim           int   // GEMM: the cube's side
	table         int64 // gather: table bytes
	count         int   // gather: reads
}

// Spec maps n > 0 events of one kernel class, totalling flops and bytes,
// to the class's representative stream on geometry g: a register-blocked
// GEMM cube sized from the mean FLOP count, two chained element-wise
// passes over the class's working set, random gathers over a table sized
// from the mean traffic, or (copies and scalar code) one streaming pass.
// kernel matters only for the unary in-place variant.
func (m StreamModel) Spec(g CacheGeometry, class KernelClass, kernel string, n, flops, bytes int64) StreamSpec {
	s := StreamSpec{geom: g, budget: m.Budget}
	line := int64(g.LineBytes)
	avgBytes := bytes / n
	switch class {
	case ClassGEMM:
		s.kind = streamGEMM
		s.dim = max(int(math.Cbrt(float64(flops)/float64(n)/2)), 8)
	case ClassEltwise:
		s.kind, s.reads, s.passes = streamEltwise, 2, 2
		if m.UnaryInPlace && unaryKernel(kernel) {
			// The write hits the line its read just fetched.
			s.reads, s.inPlace = 1, true
		}
		if m.MeanEltwiseSet {
			s.set = avgBytes / int64(s.reads+1)
		} else {
			// Consecutive element-wise kernels touch distinct tensors, so
			// the class's effective working set is its aggregate traffic;
			// the two passes model producer→consumer reuse.
			s.set = bytes / int64(s.reads+1) / 2
		}
		s.set = max(s.set, line)
	case ClassGather:
		s.kind = streamGather
		s.table, s.count = avgBytes*4, max(int(avgBytes/line), 64)
	default:
		s.kind, s.reads, s.passes = streamEltwise, 1, 1
		s.set = max(avgBytes/2, line)
	}
	return s
}

// unaryKernel reports whether an element-wise kernel updates its one
// operand in place.
func unaryKernel(kernel string) bool {
	switch kernel {
	case "relu_nn", "elementwise", "softmax", "reduce", "pool":
		return true
	}
	return false
}

// Simulate runs the stream on a fresh hierarchy and returns its stats.
// It caches nothing; Stats is the memoized form.
func (s StreamSpec) Simulate() cachesim.Stats {
	g := s.geom
	h := cachesim.NewHierarchy(
		cachesim.NewCache("L1", g.L1Bytes, g.L1Ways, g.LineBytes),
		cachesim.NewCache("L2", g.L2Bytes, g.L2Ways, g.LineBytes),
	)
	switch s.kind {
	case streamGEMM:
		cachesim.GEMMStream(h, s.dim, s.dim, s.dim, 4, s.budget)
	case streamEltwise:
		cachesim.EltwiseStream(h, s.reads, s.passes, s.set, s.inPlace, s.budget)
	case streamGather:
		cachesim.GatherStream(h, s.table, s.count, 1, s.budget)
	}
	return h.Stats()
}

// streamMemoCap bounds the stream memo. core.Analyze needs at most four
// specs per workload×device and Tab4 four per device, 136 in all for the
// registered suite, so it fits with room for batched variants; a caller
// that overflows it evicts, which costs one re-simulation later, never a
// wrong answer.
const streamMemoCap = 1024

// streamMemo maps specs to their simulated stats, process-wide.
var streamMemo = struct {
	sync.Mutex
	m map[StreamSpec]cachesim.Stats
}{m: make(map[StreamSpec]cachesim.Stats)}

// Stats returns s.Simulate(), memoized process-wide. The simulation runs
// outside the lock; goroutines racing on one spec store equal stats. A
// full memo evicts an arbitrary entry.
func (s StreamSpec) Stats() cachesim.Stats {
	streamMemo.Lock()
	st, ok := streamMemo.m[s]
	streamMemo.Unlock()
	if ok {
		return st
	}
	st = s.Simulate()
	streamMemo.Lock()
	if _, ok := streamMemo.m[s]; !ok && len(streamMemo.m) >= streamMemoCap {
		for k := range streamMemo.m {
			delete(streamMemo.m, k)
			break
		}
	}
	streamMemo.m[s] = st
	streamMemo.Unlock()
	return st
}
