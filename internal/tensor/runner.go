package tensor

// Runner is the execution strategy injected into the chunked kernels. It
// is the tensor-level view of an execution backend (internal/backend
// satisfies it structurally): a parallel-for over a chunked iteration
// space plus a scratch-buffer pool.
//
// Kernels chunk their output space, so each output element is produced by
// exactly one chunk with the same inner arithmetic order as the serial
// loop — results are bit-identical no matter how For schedules chunks.
type Runner interface {
	// For partitions [0, n) into deterministic contiguous chunks of at
	// least grain iterations and calls fn once per chunk, possibly
	// concurrently, returning after all chunks complete. Boundaries must
	// depend only on n, grain, and the runner's width — never on timing.
	For(n, grain int, fn func(lo, hi int))
	// Scratch returns a float64 buffer with at least n usable elements.
	Scratch(n int) []float64
	// Release returns a buffer obtained from Scratch.
	Release(buf []float64)
	// Scratch32 returns a float32 buffer with at least n usable elements:
	// packed GEMM panels, and the storage of every kernel output (see
	// NewOn). Safe to call from concurrent For chunks.
	Scratch32(n int) []float32
	// Release32 returns a buffer obtained from Scratch32.
	Release32(buf []float32)
}

// serialRunner is the inline, allocation-only Runner: the plain kernel
// entry points (MatMul, Conv2D, ...) delegate to their chunked variants
// through it, keeping a single implementation per kernel.
type serialRunner struct{}

func (serialRunner) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	fn(0, n)
}

func (serialRunner) Scratch(n int) []float64 { return make([]float64, n) }

func (serialRunner) Release([]float64) {}

func (serialRunner) Scratch32(n int) []float32 { return make([]float32, n) }

func (serialRunner) Release32([]float32) {}

// Serial is the default inline Runner.
var Serial Runner = serialRunner{}

// NewOn returns a zero-filled tensor of the given shape whose storage r
// supplies. Runner memory may be dirty (a pooled buffer keeps whatever its
// last user wrote), so it is cleared here, as New clears a fresh one.
func NewOn(r Runner, shape ...int) *Tensor {
	t := emptyOn(r, shape...)
	clear(t.data)
	return t
}

// emptyOn is NewOn without the zero fill: the element values are
// unspecified. Only a kernel that writes every output element may use it.
func emptyOn(r Runner, shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: r.Scratch32(n)[:n], id: idCounter.Add(1)}
}

// CopyOn returns a copy of a, with a fresh ID, whose storage r supplies.
func CopyOn(r Runner, a *Tensor) *Tensor {
	c := emptyOn(r, a.shape...)
	copy(c.data, a.data)
	return c
}

// minChunkFlops is the floor of useful work per chunk: below it, goroutine
// dispatch overhead dominates and kernels stay single-chunk.
const minChunkFlops = 32 * 1024

// grainFor converts a per-iteration flop estimate into a chunk grain:
// the minimum iterations per chunk that keep each chunk above
// minChunkFlops of work.
func grainFor(perItemFlops int64) int {
	if perItemFlops <= 0 {
		perItemFlops = 1
	}
	g := int64(minChunkFlops) / perItemFlops
	if g < 1 {
		return 1
	}
	return int(g)
}
