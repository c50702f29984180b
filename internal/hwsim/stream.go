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

// streamBudget caps each stream's accesses; hit rates converge before it.
// At half of it VSAIT's symbolic GEMM hit rates on the Xeon model move,
// and with them that report.
const streamBudget = 1 << 21

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
	geom CacheGeometry
	kind streamKind

	reads, passes int   // element-wise
	inPlace       bool  // element-wise
	set           int64 // element-wise working set, bytes
	dim           int   // GEMM: the cube's side
	table         int64 // gather: table bytes
	count         int   // gather: reads
}

// Stream maps n > 0 events of one kernel class, totalling flops and bytes,
// to the class's representative stream on geometry g: a register-blocked
// GEMM cube sized from the mean FLOP count, two chained element-wise
// passes over the class's working set, random gathers over a table sized
// from the mean traffic, or (copies and scalar code) one streaming pass.
// kernel is the events' label, and matters only for element-wise streams:
// a unary label updates its one operand in place, any other label (or ""
// for a class aggregate) reads two.
func (g CacheGeometry) Stream(class KernelClass, kernel string, n, flops, bytes int64) StreamSpec {
	s := StreamSpec{geom: g}
	line := int64(g.LineBytes)
	avgBytes := bytes / n
	switch class {
	case ClassGEMM:
		s.kind = streamGEMM
		s.dim = max(int(math.Cbrt(float64(flops)/float64(n)/2)), 8)
	case ClassEltwise:
		s.kind, s.reads, s.passes = streamEltwise, 2, 2
		if unaryKernel(kernel) {
			// The write hits the line its read just fetched.
			s.reads, s.inPlace = 1, true
		}
		// Consecutive element-wise kernels touch distinct tensors, so the
		// class's effective working set is its aggregate traffic; the two
		// passes model producer→consumer reuse.
		s.set = max(bytes/int64(s.reads+1)/2, line)
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
		cachesim.GEMMStream(h, s.dim, s.dim, s.dim, 4, streamBudget)
	case streamEltwise:
		cachesim.EltwiseStream(h, s.reads, s.passes, s.set, s.inPlace, streamBudget)
	case streamGather:
		cachesim.GatherStream(h, s.table, s.count, 1, streamBudget)
	}
	return h.Stats()
}

// StreamMemo memoizes simulated stream stats by spec, holding at most a
// fixed number of specs: a full memo evicts an arbitrary entry, which
// costs one re-simulation later, never a wrong answer. It is safe for
// concurrent use; simulations run outside the lock, and goroutines racing
// on one spec store equal stats.
type StreamMemo struct {
	mu    sync.Mutex
	limit int
	m     map[StreamSpec]cachesim.Stats
}

// NewStreamMemo returns an empty memo holding at most limit specs.
func NewStreamMemo(limit int) *StreamMemo {
	return &StreamMemo{limit: limit, m: make(map[StreamSpec]cachesim.Stats)}
}

// Stats returns s.Simulate(), memoized in m.
func (m *StreamMemo) Stats(s StreamSpec) cachesim.Stats {
	m.mu.Lock()
	st, ok := m.m[s]
	m.mu.Unlock()
	if ok {
		return st
	}
	st = s.Simulate()
	m.mu.Lock()
	if _, ok := m.m[s]; !ok && len(m.m) >= m.limit {
		for k := range m.m {
			delete(m.m, k)
			break
		}
	}
	m.m[s] = st
	m.mu.Unlock()
	return st
}

// Len returns the number of specs m holds.
func (m *StreamMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// streamMemoCap bounds the report stream memo. core.Analyze needs at most
// four specs per workload×device and Tab4 four per device, 136 in all for
// the registered suite, so it fits with room for batched variants.
const streamMemoCap = 1024

// streamMemo is the process-wide memo of the streams reports simulate.
var streamMemo = NewStreamMemo(streamMemoCap)

// Stats returns s.Simulate(), memoized in the process-wide report memo.
func (s StreamSpec) Stats() cachesim.Stats { return streamMemo.Stats(s) }
