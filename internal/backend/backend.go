// Package backend provides pluggable execution backends for the tensor
// kernels behind the instrumented ops engine.
//
// A Backend is the execution substrate a kernel runs on: it dispatches
// kernel chunks (serially or across a bounded goroutine worker pool) and
// pools scratch buffers so hot kernels avoid per-call allocation. The
// paper's characterization shows neuro-symbolic workloads dominated by
// memory-bound symbolic kernels that underutilize parallel hardware
// (Tab. IV); the Parallel backend is the substrate-level answer, while
// Serial preserves the original single-threaded execution exactly.
//
// Determinism contract: For partitions the iteration space [0, n) into
// contiguous chunks whose boundaries depend only on n, grain, and the
// backend's worker count — never on scheduling or timing. Kernels chunk
// their *output* space, so every output element is produced by exactly one
// chunk with the same inner arithmetic order as the serial loop. Results
// are therefore bit-identical across backends and across runs.
package backend

// Backend executes kernel chunks and pools scratch memory. Implementations
// must be safe for concurrent use by multiple engines.
//
// Backend is a structural superset of tensor.Runner: any Backend can be
// passed directly to the chunked tensor kernels.
type Backend interface {
	// Name identifies the backend ("serial", "parallel").
	Name() string
	// Workers returns the dispatch width (1 for serial).
	Workers() int
	// For partitions [0, n) into deterministic contiguous chunks of at
	// least grain iterations each and invokes fn once per chunk, possibly
	// concurrently. It returns only after every chunk has completed.
	// fn must write to disjoint state per chunk and must not call For.
	For(n, grain int, fn func(lo, hi int))
	// Scratch returns a float64 buffer with at least n usable elements,
	// drawn from a pool when possible. The contents are unspecified.
	Scratch(n int) []float64
	// Release returns a Scratch buffer to the pool for reuse.
	Release(buf []float64)
	// Scratch32 returns a float32 buffer with at least n usable elements
	// (packed GEMM panels at operand precision, and the storage of kernel
	// outputs), drawn from a pool when possible. The contents are
	// unspecified. Safe to call from concurrent For chunks.
	Scratch32(n int) []float32
	// Release32 returns a Scratch32 buffer to the pool for reuse.
	Release32(buf []float32)
	// Close releases backend resources (worker goroutines). The backend
	// must not be used after Close. Close on Serial is a no-op.
	Close()
}

// PoolStats is a point-in-time snapshot of a worker pool's dispatch
// behaviour: how often kernels split, where their chunks ran, and how
// many workers are busy right now. Counters are cumulative since the
// backend was constructed.
type PoolStats struct {
	// Workers is the pool's dispatch width.
	Workers int
	// BusyWorkers is the number of workers executing a chunk right now;
	// BusyWorkers/Workers is the pool's instantaneous utilization.
	BusyWorkers int
	// Splits counts For calls wide enough to split into multiple chunks.
	Splits uint64
	// ChunksDispatched counts chunks handed to pool workers.
	ChunksDispatched uint64
	// ChunksInline counts fallback chunks run on the calling goroutine
	// because every worker was busy or the pool was closed — the pool's
	// saturation signal.
	ChunksInline uint64
}

// StatsReporter is implemented by backends that publish pool statistics
// (Parallel does; Serial has nothing to report).
type StatsReporter interface {
	Stats() PoolStats
}

// WorkerFor is implemented by backends that can attribute each chunk to
// the worker executing it: worker 0 is the calling goroutine, workers
// 1..Workers() are pool goroutines. Chunk boundaries follow the same
// determinism contract as For — only the worker attribution reflects
// runtime scheduling. Timeline tracers use this to land each chunk on the
// track of the lane that really ran it.
type WorkerFor interface {
	ForWorker(n, grain int, fn func(worker, lo, hi int))
}

// chunkBounds returns the half-open range of chunk c when [0, n) is split
// into chunks even pieces. Boundaries are a pure function of its inputs,
// which is what makes parallel execution reproducible.
func chunkBounds(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// numChunks decides how many chunks to split n iterations into, given the
// per-chunk floor grain and the dispatch width. At most one chunk per
// worker, and never chunks smaller than grain: tiny kernels stay inline.
func numChunks(n, grain, workers int) int {
	if grain < 1 {
		grain = 1
	}
	chunks := n / grain
	if chunks > workers {
		chunks = workers
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}
