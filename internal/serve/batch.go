package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// Request coalescing. With Config.BatchWindow > 0, cache-missing requests
// for the same workload that arrive within the window are grouped into one
// pending batch and executed as one pass of core.ExecuteBatch: a single
// batched engine pass for a workload with a native RunBatch, solo passes
// one after another for any other. The batch contract is replica
// semantics, so every item's report is byte-identical to what a solo run
// would have produced — coalescing changes throughput, never results.
// Items of one group may name different analysis devices: the device only
// matters to the per-item analysis, not to execution, so it does not
// fragment groups.
//
// A group flushes when its window timer fires, when it reaches BatchMax
// items, or when the server drains on Close. Groups count against the
// admission queue's capacity from the moment they are created, which
// guarantees the flush-time queue send can never block while holding the
// server mutex.

// batchGroup is one pending batch: flights for the same workload waiting
// for the coalescing window to close.
type batchGroup struct {
	workload string
	flights  []*flight
	timer    *time.Timer
	flushed  bool
}

// admitLocked places f in the admission queue (coalescing disabled) or in
// a pending batch group. The caller holds s.mu and registers the flight
// in the singleflight table on success. Returns false when the server is
// saturated.
func (s *Server) admitLocked(f *flight) bool {
	if s.cfg.BatchWindow <= 0 {
		// The queue is buffered, making the reservation non-blocking.
		select {
		case s.queue <- []*flight{f}:
			return true
		default:
			return false
		}
	}
	if g, ok := s.pending[f.req.Workload]; ok && !g.flushed {
		g.flights = append(g.flights, f)
		if len(g.flights) >= s.cfg.BatchMax {
			s.flushLocked(g, "full")
		}
		return true
	}
	// A new group needs a queue slot it is guaranteed to get at flush
	// time: pending groups count against queue capacity, so the sum of
	// queued batches and pending groups never exceeds the queue's buffer
	// and the flush send below cannot block.
	if len(s.queue)+len(s.pending) >= cap(s.queue) {
		return false
	}
	g := &batchGroup{workload: f.req.Workload, flights: []*flight{f}}
	g.timer = time.AfterFunc(s.cfg.BatchWindow, func() { s.flushTimer(g) })
	s.pending[f.req.Workload] = g
	return true
}

// flushLocked moves a pending group into the worker queue. The caller
// holds s.mu. The send cannot block: the group has held a queue slot
// reservation since admitLocked created it.
func (s *Server) flushLocked(g *batchGroup, outcome string) {
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	delete(s.pending, g.workload)
	s.st.coalesceFlushes.With(outcome).Inc()
	s.queue <- g.flights
}

// flushTimer is the window-expiry path. A group already flushed (full, or
// drained by Close) is left alone; after shutdown the queue may be closed,
// so the timer never sends.
func (s *Server) flushTimer(g *batchGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.flushed || s.shutdown {
		return
	}
	s.flushLocked(g, "window")
}

// drainPendingLocked flushes every pending group into the queue ahead of
// queue close. The caller holds s.mu with shutdown already set.
func (s *Server) drainPendingLocked() {
	for _, g := range s.pending {
		if !g.flushed {
			s.flushLocked(g, "drain")
		}
	}
}

// runBatch executes one dequeued pass of any size: abandoned flights are
// retired individually, and the live ones run as one pass (Server.run)
// whose per-item reports finish each flight — and fill the cache —
// individually. Recorder attribution is scoped under the first live
// flight's request ID (the pass leader), mirroring the singleflight
// convention.
func (s *Server) runBatch(fs []*flight) {
	dequeued := time.Now()
	live := make([]*flight, 0, len(fs))
	for _, f := range fs {
		if f.loadWaiting() == 0 {
			s.st.abandoned.Inc()
			f.err = errors.New("abandoned: all waiters left the queue")
			f.code = http.StatusServiceUnavailable
			s.finish(f, false)
			continue
		}
		// Queue wait: admission (or group creation) to worker pickup,
		// recorded per flight so each request's timeline shows its own gap.
		if !f.enqueuedAt.IsZero() {
			s.recordServeSpanAt(f.id, "queue.wait", f.enqueuedAt, dequeued)
		}
		live = append(live, f)
	}
	if len(live) == 0 {
		return
	}
	lead := live[0]
	if s.cfg.BatchWindow > 0 {
		// The coalescing window itself, attributed to the pass leader.
		if !lead.enqueuedAt.IsZero() {
			s.recordServeSpanAt(lead.id, "batch.window", lead.enqueuedAt, dequeued)
		}
		s.st.occupancy.Observe(float64(len(live)))
	}
	reqs := make([]Request, len(live))
	for i, f := range live {
		reqs[i] = f.req
	}
	s.st.inflight.Inc()
	start := time.Now()
	reports, err := s.run(reqs, lead.id)
	results := make([][]byte, len(reports))
	if err == nil {
		encStart := time.Now()
		for i, r := range reports {
			if results[i], err = json.Marshal(r); err != nil {
				break
			}
		}
		s.recordServeSpan(lead.id, "core.encode", encStart)
	}
	s.st.recordRun(time.Since(start))
	s.st.inflight.Dec()
	if err != nil {
		s.st.failures.Inc()
		for _, f := range live {
			f.err = err
			s.finish(f, false)
		}
		return
	}
	for i, f := range live {
		f.res = results[i]
		s.finish(f, true)
	}
}
