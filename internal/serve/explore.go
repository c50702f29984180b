package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/trace"
)

// ExploreRequest selects one design-space sweep: a workload/device pair
// (canonicalized exactly like /v1/characterize) plus the config space to
// sweep and, for cluster fan-out, this replica's shard of the grid.
type ExploreRequest struct {
	Workload string    `json:"workload"`
	Device   string    `json:"device,omitempty"`
	Space    dse.Space `json:"space"`
	// ShardIndex/ShardCount select the grid indices congruent to
	// ShardIndex mod ShardCount. Zero ShardCount means the whole grid.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
}

// traceEntry is one cached (or in-flight) workload characterization trace.
// The trace-once/project-many contract lives here: the first sweep for a
// (workload, device) pair runs the workload once; every later sweep — and
// every concurrent one, via the done channel — projects over the cached
// trace without re-executing anything.
type traceEntry struct {
	done chan struct{} // closed when tr/err are final
	tr   *trace.Trace
	err  error
}

// workloadTrace returns the characterization trace for a canonical
// request, running the workload at most once per key (failures are not
// cached, so a transient error doesn't poison the key).
func (s *Server) workloadTrace(key string, req Request, runID string) (*trace.Trace, error) {
	s.traceMu.Lock()
	if s.traces == nil {
		s.traces = make(map[string]*traceEntry)
	}
	e, ok := s.traces[key]
	if ok {
		s.traceMu.Unlock()
		<-e.done
		return e.tr, e.err
	}
	e = &traceEntry{done: make(chan struct{})}
	s.traces[key] = e
	s.traceMu.Unlock()

	start := time.Now()
	reports, err := s.run([]Request{req}, runID)
	if err != nil {
		e.err = err
		s.traceMu.Lock()
		delete(s.traces, key)
		s.traceMu.Unlock()
	} else {
		e.tr = reports[0].Trace
		s.st.recordRun(time.Since(start))
	}
	close(e.done)
	return e.tr, e.err
}

// handleExplore streams one design-space sweep as NDJSON: a meta chunk,
// one point chunk per evaluated grid index, and a closing summary chunk
// carrying the shard's Pareto front. The stream is flushed per point, so a
// client sees results incrementally while the sweep runs.
//
// Sweeps ride the trace cache, not the report cache/admission queue: the
// expensive part (characterizing the workload) happens at most once per
// canonical key, and projection afterwards is microseconds per point. A
// small semaphore (Config.ExploreConcurrency) still bounds concurrent
// sweeps — a 10k-point grid is real CPU work — answering 429 +
// Retry-After when saturated, mirroring the admission queue's contract.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	var req ExploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	canon, key, err := Canonicalize(Request{Workload: req.Workload, Device: req.Device})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dev, err := hwsim.DeviceByName(canon.Device)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	grid, err := dse.Resolve(dev, req.Space)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if grid.Size() > s.cfg.ExploreMaxPoints {
		http.Error(w, fmt.Sprintf("grid has %d points, limit %d; narrow the space",
			grid.Size(), s.cfg.ExploreMaxPoints), http.StatusBadRequest)
		return
	}
	shardCount := req.ShardCount
	if shardCount <= 0 {
		shardCount = 1
	}
	if req.ShardIndex < 0 || req.ShardIndex >= shardCount {
		http.Error(w, fmt.Sprintf("shard_index %d out of range [0, %d)", req.ShardIndex, shardCount),
			http.StatusBadRequest)
		return
	}

	select {
	case s.exploreSem <- struct{}{}:
		defer func() { <-s.exploreSem }()
	default:
		s.st.rejected.Inc()
		w.Header().Set("Retry-After", s.retryAfterHint())
		http.Error(w, "explore concurrency limit reached", http.StatusTooManyRequests)
		return
	}
	s.st.shardsInFly.Inc()
	defer s.st.shardsInFly.Dec()

	id := frontdoor.RequestID(r)
	tr, err := s.workloadTrace(key, canon, id)
	if err != nil {
		s.st.failures.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	engine := dse.NewEngine(grid, tr)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeChunk := func(c dse.Chunk) error {
		if err := enc.Encode(c); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	if err := writeChunk(dse.Chunk{Type: "meta", Meta: &dse.ChunkMeta{
		Workload:   canon.Workload,
		Device:     canon.Device,
		GridSize:   grid.Size(),
		ShardIndex: req.ShardIndex,
		ShardCount: shardCount,
	}}); err != nil {
		return
	}

	sweepStart := time.Now()
	sum, err := engine.Sweep(r.Context(), req.ShardIndex, shardCount, func(p dse.PointResult) error {
		s.st.pointsEvaluated.Inc()
		return writeChunk(dse.Chunk{Type: "point", Point: &p})
	})
	if err != nil {
		// The stream is already committed; all we can do is stop. A client
		// disconnect (context cancellation / write error) is the normal way
		// a streaming request is abandoned, so count it with the timeouts.
		if errors.Is(err, r.Context().Err()) || r.Context().Err() != nil {
			s.st.timeouts.Inc()
		} else {
			s.st.failures.Inc()
		}
		s.recordExploreSpan(id, canon, req.ShardIndex, shardCount, 0, time.Since(sweepStart))
		return
	}
	sum.Workload = canon.Workload
	sum.Device = canon.Device
	s.st.sweepsRun.Inc()
	s.st.pointsPerSec.Set(sum.PointsPerSec)
	s.st.frontSize.Observe(float64(sum.FrontSize))
	s.recordExploreSpan(id, canon, req.ShardIndex, shardCount, sum.Evaluated, time.Since(sweepStart))
	writeChunk(dse.Chunk{Type: "summary", Summary: sum})
}

// recordExploreSpan drops one synthetic "explore.sweep" event into the
// flight recorder under the request's ID, so /debug/trace shows sweeps
// next to the operator events they projected from: the stage carries the
// shard coordinates and the byte count carries the points evaluated.
func (s *Server) recordExploreSpan(id string, canon Request, shardIndex, shardCount, points int, dur time.Duration) {
	if s.recorder == nil {
		return
	}
	rec := s.recorder.Observer(id)
	rec(&trace.Event{
		Name:     "explore.sweep",
		Kernel:   "explore",
		Stage:    fmt.Sprintf("%s shard %d/%d", canon.Workload, shardIndex, shardCount),
		Dur:      dur,
		Bytes:    int64(points),
		Sparsity: -1,
	})
}
