package ops

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/trace"
)

// Backend names accepted by Config and the CLI -backend flag.
const (
	BackendSerial   = "serial"
	BackendParallel = "parallel"
)

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithBackend runs the engine's kernels on b. Passing nil keeps the
// default serial backend.
func WithBackend(b backend.Backend) Option {
	return func(e *Engine) {
		if b != nil {
			e.be = b
		}
	}
}

// Config names an execution backend in the plain-data form carried by
// CLI flags and service configs. The zero value selects the serial
// backend.
type Config struct {
	Backend string // "serial" (default) or "parallel"
	Workers int    // parallel worker count; <1 selects GOMAXPROCS
}

// Validate reports whether the backend name is known.
func (c Config) Validate() error {
	switch c.Backend {
	case "", BackendSerial, BackendParallel:
	default:
		return fmt.Errorf("ops: unknown backend %q (want %q or %q)", c.Backend, BackendSerial, BackendParallel)
	}
	return nil
}

// New builds an engine on a backend of its own. The caller owns the
// engine's backend and must Close the engine when done.
func (c Config) New() *Engine { return New(WithBackend(c.build())) }

// NewPool builds the shared-backend pool for c. Every engine the pool
// hands out runs on one backend — and so one worker pool and one scratch
// pool — and the pool's Close is the single teardown point for all of
// them. Whoever runs engines owns the pool: a binary or service builds
// one at startup and passes it to every run (core.Options.Pool), so no
// run spawns a worker pool of its own.
func (c Config) NewPool() *Pool { return NewPool(c.build()) }

// NewPool returns a pool handing out engines on be. The pool's Close
// closes be.
func NewPool(be backend.Backend) *Pool { return &Pool{be: be} }

// Pool owns one shared execution backend and builds engines on it. The
// zero value is not usable; construct pools with Config.NewPool. A Pool is
// safe for concurrent use: engines may be created from many goroutines
// (each engine itself stays single-goroutine).
type Pool struct {
	be   backend.Backend
	once sync.Once
	// observer, when set, is installed on every engine the pool hands
	// out, so every run through a shared pool feeds the same live
	// metrics sink.
	observer atomic.Pointer[trace.Observer]
}

// SetObserver installs a live event observer on all engines the pool
// creates from now on (see Engine.SetObserver for the concurrency
// contract). Typically called once at service startup, right after
// NewPool.
func (p *Pool) SetObserver(fn trace.Observer) {
	if fn == nil {
		p.observer.Store(nil)
		return
	}
	p.observer.Store(&fn)
}

// Engine returns a fresh engine recording into a fresh trace on the pool's
// shared backend. Do not Close the returned engine — the backend belongs
// to the pool. Its outputs are run-scoped: the engine tracks the buffers
// they occupy, and Recycle, once the run ends, hands them back to the
// backend's scratch pool for the pool's next engines (dropping the engine
// without Recycle leaves them to the garbage collector).
func (p *Pool) Engine() *Engine {
	e := New(WithBackend(p.be))
	e.kt.live = map[*float32][]float32{}
	if fn := p.observer.Load(); fn != nil {
		e.observer = *fn
	}
	return e
}

// Backend exposes the shared backend (e.g. for Workers() introspection).
func (p *Pool) Backend() backend.Backend { return p.be }

// Close tears down the shared backend's worker goroutines. Close is
// idempotent; engines built from the pool must not run kernels afterwards.
func (p *Pool) Close() { p.once.Do(p.be.Close) }

func (c Config) build() backend.Backend {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if c.Backend == BackendParallel && c.Workers != 1 {
		return backend.NewParallel(c.Workers)
	}
	return backend.Serial{}
}
