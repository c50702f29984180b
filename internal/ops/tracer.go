package ops

import (
	"sync"
	"time"
	"unsafe"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/trace"
)

// kernelTracer is the engine's timeline shim around its execution
// backend. During an instrumented op, the engine swaps itself onto the
// tracer, which forwards every kernel dispatch to the real backend and —
// when the backend can attribute chunks to workers — records each
// dispatched chunk as a trace.Span on the worker's timeline track. Those
// chunk spans are what make a parallel-backend Chrome trace visibly
// overlap where a serial one cannot.
//
// Only dispatches that actually split are recorded: a single-chunk For
// (serial backend, or n below the grain) adds no spans and costs nothing
// beyond one interface type assertion, so serial timelines stay exactly
// one op track per phase.
//
// The tracer is also where the engine's outputs come from: kernels draw
// them, like their internal scratch, with tensor.Runner.Scratch32. For an
// engine from a Pool, every buffer drawn is recorded as live until the
// kernel hands it back with Release32 (its internal scratch) or the engine
// releases or recycles it (see Engine.Recycle). A stand-alone engine
// records nothing (live is nil): it has no run boundary to return its
// outputs at, so they stay ordinary garbage.
//
// The label (kernel name, phase) is written by the engine goroutine
// between ops; chunk callbacks run concurrently on pool workers, so the
// span list and the live set are mutex-guarded. One lock round per
// recorded chunk or drawn buffer is noise against the work behind it.
type kernelTracer struct {
	be backend.Backend

	kernel string
	phase  trace.Phase

	mu    sync.Mutex
	spans []trace.Span
	// live maps each drawn, not yet returned buffer's first element to
	// the buffer; nil when the engine does not track its outputs.
	// Tracking buffers rather than tensors makes aliases (a Reshape,
	// MulInPlace's result) one entry.
	live map[*float32][]float32
}

func newKernelTracer(be backend.Backend) *kernelTracer {
	return &kernelTracer{be: be}
}

// label names the op the next dispatches belong to. Engine goroutine only.
func (k *kernelTracer) label(kernel string, phase trace.Phase) {
	k.kernel, k.phase = kernel, phase
}

// For forwards the dispatch, recording per-chunk spans when the backend
// reports worker attribution and the dispatch splits.
func (k *kernelTracer) For(n, grain int, fn func(lo, hi int)) {
	wf, ok := k.be.(backend.WorkerFor)
	if !ok {
		k.be.For(n, grain, fn)
		return
	}
	kernel, phase := k.kernel, k.phase
	wf.ForWorker(n, grain, func(worker, lo, hi int) {
		if lo == 0 && hi == n {
			// The only chunk: the dispatch never split, nothing to attribute.
			fn(lo, hi)
			return
		}
		start := time.Now()
		fn(lo, hi)
		end := time.Now()
		k.mu.Lock()
		k.spans = append(k.spans, trace.Span{
			Name:   kernel,
			Kind:   trace.SpanChunk,
			Phase:  phase,
			Worker: worker,
			Start:  start,
			End:    end,
		})
		k.mu.Unlock()
	})
}

// drain moves the accumulated chunk spans into tr. Engine goroutine only,
// called after the dispatching op returned (so no chunk is in flight).
func (k *kernelTracer) drain(tr *trace.Trace) {
	k.mu.Lock()
	spans := k.spans
	k.spans = nil
	k.mu.Unlock()
	for _, s := range spans {
		tr.AddSpan(s)
	}
}

// Scratch32 draws a buffer from the backend's pool and, when the engine
// tracks its outputs, records it live.
func (k *kernelTracer) Scratch32(n int) []float32 {
	buf := k.be.Scratch32(n)
	if k.live != nil {
		k.mu.Lock()
		k.live[unsafe.SliceData(buf)] = buf
		k.mu.Unlock()
	}
	return buf
}

// Release32 returns a buffer to the backend's pool. A tracking engine
// returns only buffers it holds live: one already returned or never
// drawn here is left alone, so no buffer reaches the pool twice.
func (k *kernelTracer) Release32(buf []float32) {
	if k.live == nil || k.forget(buf) {
		k.be.Release32(buf)
	}
}

// forget stops tracking buf and reports whether it was live.
func (k *kernelTracer) forget(buf []float32) bool {
	first := unsafe.SliceData(buf)
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.live[first]; !ok {
		return false
	}
	delete(k.live, first)
	return true
}

// recycle returns every live buffer to the backend's pool. Engine
// goroutine only, with no kernel in flight.
func (k *kernelTracer) recycle() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, buf := range k.live {
		k.be.Release32(buf)
	}
	clear(k.live)
}

// The remaining Backend methods delegate untouched.

func (k *kernelTracer) Name() string            { return k.be.Name() }
func (k *kernelTracer) Workers() int            { return k.be.Workers() }
func (k *kernelTracer) Scratch(n int) []float64 { return k.be.Scratch(n) }
func (k *kernelTracer) Release(buf []float64)   { k.be.Release(buf) }
func (k *kernelTracer) Close()                  { k.be.Close() }
