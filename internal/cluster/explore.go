package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/serve"
)

// handleExplore fans one design-space sweep out across the cluster. The
// grid is partitioned into min(live replicas, grid size) shards — shard i
// owns the indices congruent to i — and each shard is streamed from a
// replica chosen by consistent hashing on the sweep-shard key
// (canonical key + "\x00explore-shard-i"), with failover to the next ring
// nodes on transport errors or gateway-class statuses.
//
// The client sees one interleaved NDJSON stream: the router's meta chunk
// first, once the first shard's replica has answered 200, then every
// replica's point chunks forwarded verbatim as they arrive (deduplicated
// by grid index, so a shard retried after a partial stream never repeats
// a point), and finally one merged summary whose
// Pareto front is dse.MergeFronts over the shard fronts — provably equal
// to the front a single replica would compute over the whole grid, and
// byte-identical to it because point evaluation is deterministic. When
// every shard is refused with a 4xx before anything streamed (say, a grid
// over the replicas' point limit, which only they know), the client gets
// that status and body instead of a 200 stream.
func (rt *Router) handleExplore(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req serve.ExploreRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ShardCount != 0 || req.ShardIndex != 0 {
		http.Error(w, "shard_index/shard_count are router-assigned; sweep the whole grid", http.StatusBadRequest)
		return
	}
	canon, key, err := serve.Canonicalize(serve.Request{Workload: req.Workload, Device: req.Device})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dev, err := hwsim.DeviceByName(canon.Device)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Resolving the grid here both validates the space before any bytes
	// stream and fixes the shard count against the grid size.
	grid, err := dse.Resolve(dev, req.Space)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	live := rt.ring.Len()
	if live == 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(rt.cfg.Health.Interval))
		http.Error(w, errNoReplicas.Error(), http.StatusServiceUnavailable)
		return
	}
	shards := live
	if grid.Size() < shards {
		shards = grid.Size()
	}
	rt.exploreSweeps.Inc()

	meta, err := json.Marshal(dse.Chunk{Type: "meta", Meta: &dse.ChunkMeta{
		Workload:   canon.Workload,
		Device:     canon.Device,
		GridSize:   grid.Size(),
		ShardIndex: 0,
		ShardCount: 1,
		Shards:     shards,
	}})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	flusher, _ := w.(http.Flusher)
	out := &streamWriter{w: w, flusher: flusher, sent: make(map[int]bool), meta: meta}

	id := frontdoor.RequestID(r)
	start := time.Now()
	summaries := make([]*dse.Summary, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			span := shardSpan{index: shard, count: shards, gridSize: grid.Size()}
			summaries[shard], errs[shard] = rt.streamShard(r.Context(), key, canon, req.Space, span, id, out)
		}(i)
	}
	wg.Wait()
	if refused := allRefused(errs); refused != nil && !out.opened() {
		http.Error(w, refused.body, refused.code)
		return
	}

	sum := &dse.Summary{
		Workload:   canon.Workload,
		Device:     canon.Device,
		GridSize:   grid.Size(),
		ShardIndex: 0,
		ShardCount: 1,
	}
	var fronts [][]dse.PointResult
	for i, s := range summaries {
		if errs[i] != nil {
			sum.Errors = append(sum.Errors, fmt.Sprintf("shard %d/%d: %v", i, shards, errs[i]))
			continue
		}
		sum.Evaluated += s.Evaluated
		sum.Failed += s.Failed
		fronts = append(fronts, s.Front)
	}
	sum.Front = dse.MergeFronts(fronts...)
	sum.FrontSize = len(sum.Front)
	elapsed := time.Since(start)
	sum.ElapsedNs = elapsed.Nanoseconds()
	if s := elapsed.Seconds(); s > 0 {
		sum.PointsPerSec = float64(sum.Evaluated) / s
	}
	out.writeChunk(dse.Chunk{Type: "summary", Summary: sum})
}

// allRefused returns one shard's refusal when every shard ended in a 4xx
// answer, and nil otherwise.
func allRefused(errs []error) *errShardStatus {
	var first *errShardStatus
	for _, err := range errs {
		var st *errShardStatus
		if !errors.As(err, &st) || st.code < 400 || st.code >= 500 {
			return nil
		}
		if first == nil {
			first = st
		}
	}
	return first
}

// streamWriter serializes interleaved shard streams onto one client
// connection: point lines are forwarded verbatim under the lock,
// deduplicated by grid index so shard retries never repeat a point. The
// response status, headers and the sweep's meta line are held back until
// the stream opens: at the first line written, or when a shard's replica
// answers 200.
type streamWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	sent    map[int]bool
	meta    []byte // written ahead of every other line; nil once it is out
	err     error  // first client write error; fails every later write
}

// open starts the stream: 200, NDJSON headers and the meta line. Only the
// first call writes anything.
func (sw *streamWriter) open() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.openLocked()
}

func (sw *streamWriter) openLocked() error {
	if sw.meta == nil || sw.err != nil {
		return sw.err
	}
	meta := sw.meta
	sw.meta = nil
	sw.w.Header().Set("Content-Type", "application/x-ndjson")
	sw.w.Header().Set("Cache-Control", "no-store")
	return sw.writeLocked(meta)
}

// opened reports whether the stream has started.
func (sw *streamWriter) opened() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.meta == nil
}

// writeChunk marshals and writes one router-authored chunk.
func (sw *streamWriter) writeChunk(c dse.Chunk) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return sw.writeLine(b, -1)
}

// writeLine writes one NDJSON line, opening the stream first. index >= 0
// marks a point line subject to deduplication.
func (sw *streamWriter) writeLine(line []byte, index int) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.openLocked(); err != nil {
		return err
	}
	if index >= 0 {
		if sw.sent[index] {
			return nil
		}
		sw.sent[index] = true
	}
	return sw.writeLocked(line)
}

// writeLocked writes and flushes one line. The caller holds sw.mu.
func (sw *streamWriter) writeLocked(line []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if _, err := sw.w.Write(append(line, '\n')); err != nil {
		sw.err = err
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

// streamShard streams one shard of the sweep from its ring-assigned
// replica, forwarding point lines into out and returning the shard
// summary. On a retryable failure — transport error, gateway-class or 429
// status, or a stream that dies before its summary — the shard is re-run
// on the next ring node; already-forwarded points are suppressed by the
// writer's index dedupe, and the engine's determinism makes the retried
// points byte-identical to the originals.
func (rt *Router) streamShard(ctx context.Context, key string, canon serve.Request, space dse.Space, span shardSpan, id string, out *streamWriter) (*dse.Summary, error) {
	shard := span.index
	shardKey := key + "\x00explore-shard-" + strconv.Itoa(shard)
	nodes := rt.ring.GetN(shardKey, rt.cfg.MaxAttempts)
	if len(nodes) == 0 {
		return nil, errNoReplicas
	}
	body, err := json.Marshal(serve.ExploreRequest{
		Workload:   canon.Workload,
		Device:     canon.Device,
		Space:      space,
		ShardIndex: shard,
		ShardCount: span.count,
	})
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i, node := range nodes {
		if i > 0 {
			rt.retries.Inc()
			select {
			case <-time.After(rt.backoff(i)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		sum, err := rt.streamShardFrom(ctx, node, body, span, id, out)
		if err == nil {
			rt.exploreShards.Inc()
			return sum, nil
		}
		lastErr = err
		if rt.logger != nil {
			rt.logger.Warn("explore shard attempt failed", "node", node, "shard", shard, "id", id, "err", err)
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// shardSpan is one shard of a sweep: the grid indices congruent to index
// mod count, below gridSize.
type shardSpan struct {
	index, count, gridSize int
}

// owns reports whether grid index i belongs to the shard.
func (s shardSpan) owns(i int) bool {
	return i >= 0 && i < s.gridSize && i%s.count == s.index
}

// size is the number of grid indices the shard owns.
func (s shardSpan) size() int {
	return (s.gridSize - s.index + s.count - 1) / s.count
}

// check refuses a chunk that no replica sweeping the shard could send: a
// point outside the shard, or a summary whose counts do not fit in it or
// whose front holds such a point. Without it, an index the writer does not
// dedupe would reach the client and a negative or oversized count would
// reach the merged summary.
func (s shardSpan) check(c *dse.Chunk) error {
	switch c.Type {
	case "point":
		if c.Point == nil {
			return errors.New("point chunk without point")
		}
		if !s.owns(c.Point.Index) {
			return fmt.Errorf("point index %d outside shard %d/%d of %d", c.Point.Index, s.index, s.count, s.gridSize)
		}
	case "summary":
		if c.Summary == nil {
			return nil // reported as a stream without a summary
		}
		if n := c.Summary.Evaluated; n < 0 || n > s.size() || c.Summary.Failed < 0 || c.Summary.Failed > n {
			return fmt.Errorf("summary counts %d evaluated, %d failed outside shard %d/%d of %d",
				n, c.Summary.Failed, s.index, s.count, s.gridSize)
		}
		for _, p := range c.Summary.Front {
			if !s.owns(p.Index) {
				return fmt.Errorf("front index %d outside shard %d/%d of %d", p.Index, s.index, s.count, s.gridSize)
			}
		}
	}
	return nil
}

// errShardStatus wraps a non-200 upstream answer so streamShard can fail
// over on it.
type errShardStatus struct {
	code int
	body string
}

func (e *errShardStatus) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// streamShardFrom runs one shard attempt against one replica, forwarding
// its point lines and returning its summary. A line that is not a chunk,
// or a chunk span refuses, fails the attempt as a bad chunk.
func (rt *Router) streamShardFrom(ctx context.Context, node string, body []byte, span shardSpan, id string, out *streamWriter) (*dse.Summary, error) {
	// No per-attempt timeout: a large shard legitimately streams for a
	// while, and a wedged upstream is caught by the request context (client
	// disconnect) or the scan loop erroring out.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.nodeErrs.With(node).Inc()
		rt.health.ReportFailure(node)
		return nil, fmt.Errorf("%s: %w", node, err)
	}
	defer resp.Body.Close()
	rt.nodeReqs.With(node, strconv.Itoa(resp.StatusCode)).Inc()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			rt.health.ReportFailure(node)
		case http.StatusTooManyRequests:
			// Backpressure, not ill health; the next node may have a slot.
		default:
			rt.health.ReportSuccess(node)
		}
		return nil, &errShardStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if err := out.open(); err != nil {
		return nil, err
	}

	var summary *dse.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxBodyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		var c dse.Chunk
		err := json.Unmarshal(line, &c)
		if err == nil {
			err = span.check(&c)
		}
		if err != nil {
			rt.health.ReportFailure(node)
			return nil, fmt.Errorf("%s: bad chunk %.80q: %w", node, line, err)
		}
		switch c.Type {
		case "meta":
			// The shard's own meta is router-internal; the client already
			// got the sweep-level one.
		case "point":
			if err := out.writeLine(append([]byte(nil), line...), c.Point.Index); err != nil {
				return nil, err
			}
		case "summary":
			summary = c.Summary
		default:
			return nil, fmt.Errorf("%s: unknown chunk type %q", node, c.Type)
		}
	}
	if err := sc.Err(); err != nil {
		rt.nodeErrs.With(node).Inc()
		rt.health.ReportFailure(node)
		return nil, fmt.Errorf("%s: stream: %w", node, err)
	}
	if summary == nil {
		rt.health.ReportFailure(node)
		return nil, fmt.Errorf("%s: stream ended without a summary", node)
	}
	rt.health.ReportSuccess(node)
	return summary, nil
}
