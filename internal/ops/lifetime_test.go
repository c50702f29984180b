package ops

import (
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/tensor"
)

// countingBackend is a serial backend that never reuses memory and counts
// how often each buffer it handed out comes back, by address.
type countingBackend struct {
	backend.Serial
	mu    sync.Mutex
	drawn []uintptr
	puts  map[uintptr]int
}

func (c *countingBackend) Scratch32(n int) []float32 {
	buf := make([]float32, n, max(n, 1))
	c.mu.Lock()
	c.drawn = append(c.drawn, key(buf))
	c.mu.Unlock()
	return buf
}

func (c *countingBackend) Release32(buf []float32) {
	c.mu.Lock()
	if c.puts == nil {
		c.puts = map[uintptr]int{}
	}
	c.puts[key(buf)]++
	c.mu.Unlock()
}

// TestRecycleReturnsEachBufferOnce pins the engine's output lifetimes:
// every buffer an op draws goes back to the backend exactly once, whether
// a kernel returns it (internal scratch), the workload releases it early,
// or the run's Recycle does; aliases (Reshape, MulInPlace) and repeated
// releases never put a buffer twice; storage the engine never drew is
// never put at all. GC is off, so no dropped intermediate is collected
// before Recycle sees it.
func TestRecycleReturnsEachBufferOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cb := &countingBackend{}
	e := NewPool(cb).Engine()
	g := tensor.NewRNG(3)
	x := g.Normal(0, 1, 64)
	// Large enough that the dispatch table picks the tiled GEMM, whose
	// packing panel is kernel scratch.
	a := g.Normal(0, 1, 32, 64)
	b := g.Normal(0, 1, 64, 32)
	if k := tensor.GemmKernelFor(32, 64, 32); k != tensor.KernelTiled {
		t.Fatalf("dispatch picks %v for the 32×64·64×32 GEMM, want tiled", k)
	}

	y := e.Add(x, x)
	_ = e.Reshape(y, 8, 8)
	z := e.MulInPlace(y, x) // shares y's buffer
	e.Release(z)
	e.Release(y) // same buffer, already back
	e.Release(x) // never drawn by the engine
	_ = e.Mul(x, x)
	_ = e.MatMul(a, b) // the tiled GEMM draws and returns a packing panel
	ea, eb := e.ExpandOuter(g.Normal(0, 1, 4), g.Normal(0, 1, 5))
	e.Release(eb)
	_ = e.Softmax(ea)
	e.Recycle()
	e.Recycle()

	if len(cb.drawn) < 7 {
		t.Fatalf("the engine drew %d buffers; expected its outputs to come from the backend", len(cb.drawn))
	}
	for i, p := range cb.drawn {
		if got := cb.puts[p]; got != 1 {
			t.Errorf("buffer %d went back %d times, want 1", i, got)
		}
	}
	if n := cb.puts[key(x.Data())]; n != 0 {
		t.Errorf("storage the engine never drew went to the pool %d times", n)
	}
}

// TestStandaloneEngineTracksNothing: an engine outside a Pool has no run
// boundary, so it records no outputs; Release hands a buffer straight
// back, as it always did, and Recycle does nothing.
func TestStandaloneEngineTracksNothing(t *testing.T) {
	cb := &countingBackend{}
	e := New(WithBackend(cb))
	x := tensor.NewRNG(4).Normal(0, 1, 64)
	y := e.Add(x, x)
	_ = e.Mul(x, x)
	e.Release(y)
	e.Recycle()
	if len(cb.drawn) != 2 {
		t.Fatalf("drew %d buffers, want 2", len(cb.drawn))
	}
	if cb.puts[key(y.Data())] != 1 || len(cb.puts) != 1 {
		t.Fatalf("puts = %v, want only the released output, once", cb.puts)
	}
}

// key identifies a buffer by the address of its first element.
func key(buf []float32) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(buf))) }
