package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// batchTestWorkload is a native BatchWorkload whose work is entirely
// shared across batch items: one solo-shaped pass under replica
// amplification stands for the whole batch, so a coalesced pass of n
// items costs about as much as a solo run. It is the serving analogue of
// the paper's observation that small symbolic kernels cannot fill the
// hardware — batching them is nearly free — and it is what gives
// BenchmarkServeBatch a real batched/unbatched gap to measure.
type batchTestWorkload struct{ dim int }

func (w *batchTestWorkload) Name() string     { return "testbatch" }
func (w *batchTestWorkload) Category() string { return "Test" }

func (w *batchTestWorkload) Run(e *ops.Engine) error { return w.RunBatch(e, 1) }

func (w *batchTestWorkload) RunBatch(e *ops.Engine, n int) error {
	e.SetReplicas(n)
	defer e.SetReplicas(1)
	g := tensor.NewRNG(1)
	a := g.Normal(0, 1, w.dim, w.dim)
	b := g.Normal(0, 1, w.dim, w.dim)
	c := e.MatMul(a, b)
	e.Softmax(c)
	return nil
}

var registerBatchOnce sync.Once

func registerBatchWorkload() {
	registerBatchOnce.Do(func() {
		core.RegisterWorkload("testbatch", "Test", func() core.Workload { return &batchTestWorkload{dim: 160} })
	})
}

// postDevice issues one characterize request for workload on device.
func postDevice(h http.Handler, workload, device string) int {
	rec := post(h, fmt.Sprintf(`{"workload":%q,"device":%q}`, workload, device))
	return rec.Code
}

// TestCoalescerFlushOnFull verifies grouping: three concurrent misses for
// the same workload on distinct devices coalesce into one engine pass
// (BatchMax reached — the long window never expires), every item's report
// lands in the cache under its own key, and the stats expose the batch.
func TestCoalescerFlushOnFull(t *testing.T) {
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(t, Config{BatchWindow: 500 * time.Millisecond, BatchMax: 3})
	h := s.Handler()
	devs := hwsim.AllDevices()[:3]

	var wg sync.WaitGroup
	codes := make([]int, len(devs))
	for i, d := range devs {
		wg.Add(1)
		go func(i int, dev string) {
			defer wg.Done()
			codes[i] = postDevice(h, "testbatch", dev)
		}(i, d.Name)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, devs[i].Name, code)
		}
	}
	if got := s.st.occupancy.Count(); got != 1 {
		t.Fatalf("batches = %d, want 1 (one coalesced pass)", got)
	}
	if got := s.st.occupancy.Sum(); got != 3 {
		t.Fatalf("batch items = %v, want 3", got)
	}
	if got := s.st.coalesceFlushes.With("full").Value(); got != 1 {
		t.Fatalf("full flushes = %d, want 1", got)
	}
	snap := s.st.snapshot()
	if snap.BatchesRun != 1 || snap.AvgOccupancy != 3 {
		t.Fatalf("snapshot batches_run=%d avg_occupancy=%v, want 1 / 3", snap.BatchesRun, snap.AvgOccupancy)
	}
	// Every item filled the cache individually.
	for _, d := range devs {
		rec := post(h, fmt.Sprintf(`{"workload":"testbatch","device":%q}`, d.Name))
		if rec.Code != http.StatusOK || rec.Header().Get("X-NSServe-Cache") != "hit" {
			t.Fatalf("device %s after batch: status %d cache %q, want 200 hit",
				d.Name, rec.Code, rec.Header().Get("X-NSServe-Cache"))
		}
	}
}

// detReport is the deterministic subset of a served report: every field
// that does not follow wall-clock time.
type detReport struct {
	Name              string          `json:"name"`
	Category          string          `json:"category"`
	Device            string          `json:"device"`
	SymbolicFLOPShare float64         `json:"symbolic_flop_share"`
	MovementH2DPct    float64         `json:"movement_h2d_pct"`
	Memory            json.RawMessage `json:"memory"`
	Roofline          []struct {
		Name string  `json:"name"`
		AI   float64 `json:"arithmetic_intensity"`
	} `json:"roofline"`
	Dataflow struct {
		Events           int `json:"events"`
		Edges            int `json:"edges"`
		Depth            int `json:"depth"`
		MaxWidth         int `json:"max_width"`
		NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
		SymbolicToNeural int `json:"symbolic_to_neural_edges"`
	} `json:"dataflow"`
	Stages []struct {
		Stage    string  `json:"stage"`
		Events   int     `json:"events"`
		Sparsity float64 `json:"sparsity"`
	} `json:"stages"`
}

func detFields(t *testing.T, body []byte) string {
	t.Helper()
	var d detReport
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("decoding report %q: %v", body, err)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// characterizeAs posts one characterize request for workload on device
// under the given request ID.
func characterizeAs(h http.Handler, id, workload, device string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/characterize",
		strings.NewReader(fmt.Sprintf(`{"workload":%q,"device":%q}`, workload, device)))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// requestTrace fetches the replica's recorded trace of one request.
func requestTrace(t *testing.T, h http.Handler, id string) trace.RequestTrace {
	t.Helper()
	var rt trace.RequestTrace
	if err := json.Unmarshal(get(h, "/v1/trace?request_id="+id).Body.Bytes(), &rt); err != nil {
		t.Fatalf("request trace %s: %v", id, err)
	}
	return rt
}

// TestCoalescerNonNativePass verifies the pass of a workload without a
// native RunBatch: three concurrent misses for testfast on three devices
// coalesce into one pass of three solo engine runs, each report's
// deterministic fields equal a solo miss's on a server without
// coalescing, and the pass leader's request trace holds the pass's
// core.build, core.analyze and core.encode spans and all of its
// operator events.
func TestCoalescerNonNativePass(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{BatchWindow: 500 * time.Millisecond, BatchMax: 3})
	solo := newTestServer(t, Config{})
	h, soloH := s.Handler(), solo.Handler()
	devs := hwsim.AllDevices()[:3]

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, len(devs))
	for i, d := range devs {
		wg.Add(1)
		go func(i int, dev string) {
			defer wg.Done()
			recs[i] = characterizeAs(h, fmt.Sprintf("pass-%d", i), "testfast", dev)
		}(i, d.Name)
	}
	wg.Wait()
	if got := s.st.occupancy.Count(); got != 1 {
		t.Fatalf("passes = %d, want 1 (one coalesced pass)", got)
	}
	if got := s.st.occupancy.Sum(); got != 3 {
		t.Fatalf("pass items = %v, want 3", got)
	}
	if got := testCtl.runs.Load(); got != 3 {
		t.Fatalf("engine runs = %d, want 3 (one solo run per item)", got)
	}
	for i, d := range devs {
		if recs[i].Code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, d.Name, recs[i].Code, recs[i].Body)
		}
		want := characterizeAs(soloH, fmt.Sprintf("solo-%d", i), "testfast", d.Name)
		if want.Code != http.StatusOK {
			t.Fatalf("solo %s: status %d", d.Name, want.Code)
		}
		if got, want := detFields(t, recs[i].Body.Bytes()), detFields(t, want.Body.Bytes()); got != want {
			t.Errorf("%s: coalesced report diverges from a solo miss:\npass: %s\nsolo: %s", d.Name, got, want)
		}
	}

	soloEvents := len(requestTrace(t, soloH, "solo-0").Events)
	leaders := 0
	for i := range devs {
		rt := requestTrace(t, h, fmt.Sprintf("pass-%d", i))
		spans := map[string]bool{}
		for _, sp := range rt.Spans {
			spans[sp.Name] = true
		}
		if !spans["core.build"] {
			continue
		}
		leaders++
		for _, want := range []string{"core.analyze", "core.encode"} {
			if !spans[want] {
				t.Errorf("leader pass-%d's trace has no %s span: %v", i, want, spans)
			}
		}
		if got := len(rt.Events); got != 3*soloEvents {
			t.Errorf("leader pass-%d's trace holds %d events, want 3 × %d", i, got, soloEvents)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d requests carry the pass's core.build span, want 1 (the leader)", leaders)
	}
}

// TestCoalescerWindowFlush verifies the timer path: a lone miss waits out
// the window, then runs as an occupancy-1 pass.
func TestCoalescerWindowFlush(t *testing.T) {
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(t, Config{BatchWindow: 2 * time.Millisecond})
	if code := postDevice(s.Handler(), "testbatch", ""); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := s.st.coalesceFlushes.With("window").Value(); got != 1 {
		t.Fatalf("window flushes = %d, want 1", got)
	}
	snap := s.st.snapshot()
	if snap.BatchesRun != 1 || snap.AvgOccupancy != 1 {
		t.Fatalf("snapshot batches_run=%d avg_occupancy=%v, want 1 / 1", snap.BatchesRun, snap.AvgOccupancy)
	}
}

// TestCoalescerCloseDrainsPendingGroups verifies Close answers waiters
// whose group is still inside its window instead of leaving them to time
// out against a closed queue.
func TestCoalescerCloseDrainsPendingGroups(t *testing.T) {
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(t, Config{BatchWindow: 10 * time.Second})
	h := s.Handler()

	code := make(chan int, 1)
	go func() { code <- postDevice(h, "testbatch", "") }()
	waitFor(t, "pending group", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending) == 1
	})
	s.Close()
	select {
	case c := <-code:
		if c != http.StatusOK {
			t.Fatalf("drained request: status %d", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still blocked after Close")
	}
	if got := s.st.coalesceFlushes.With("drain").Value(); got != 1 {
		t.Fatalf("drain flushes = %d, want 1", got)
	}
}

// TestCoalescerMixedWorkloadsGroupSeparately verifies the grouping key:
// requests for different workloads never share a pass.
func TestCoalescerMixedWorkloadsGroupSeparately(t *testing.T) {
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(t, Config{BatchWindow: 500 * time.Millisecond, BatchMax: 2})
	h := s.Handler()
	devs := hwsim.AllDevices()

	var wg sync.WaitGroup
	for _, wl := range []string{"testbatch", "testfast"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(wl, dev string) {
				defer wg.Done()
				if code := postDevice(h, wl, dev); code != http.StatusOK {
					t.Errorf("%s on %s: status %d", wl, dev, code)
				}
			}(wl, devs[i].Name)
		}
	}
	wg.Wait()
	if got := s.st.occupancy.Count(); got != 2 {
		t.Fatalf("batches = %d, want 2 (one per workload)", got)
	}
	if got := s.st.occupancy.Sum(); got != 4 {
		t.Fatalf("batch items = %v, want 4", got)
	}
}

// TestCoalescerSoak is the race-detector smoke the CI runs: sustained
// mixed hit/miss traffic over a small cache with a 2ms window, across
// every device and two workloads: testbatch, which folds a pass into one
// batched engine run, and testfast, whose pass runs one solo engine run
// per item. It must finish with zero failed characterizations and an
// average occupancy above 1 (i.e. real coalescing happened). Gated behind
// NSBENCH_COALESCER_SOAK because it burns a few wall-clock seconds.
func TestCoalescerSoak(t *testing.T) {
	if os.Getenv("NSBENCH_COALESCER_SOAK") == "" {
		t.Skip("set NSBENCH_COALESCER_SOAK=1 to run the coalescer soak")
	}
	resetCtl(false)
	registerBatchWorkload()
	s := newTestServer(t, Config{
		BatchWindow: 2 * time.Millisecond,
		BatchMax:    8,
		CacheSize:   3, // smaller than the key space: sustained misses
		QueueDepth:  256,
		Concurrency: 2,
	})
	h := s.Handler()
	devs := hwsim.AllDevices()
	workloads := []string{"testbatch", "testfast"}

	const clients = 16
	const perClient = 30
	var bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// At each step the clients of one workload spread over
				// every device, so in-lockstep misses coalesce instead of
				// deduplicating onto one key. Clients c and c+8 share a
				// key: one often hits what the other cached moments ago,
				// drifted clients miss — the sustained hit/miss mix.
				wl := workloads[(c+i)%len(workloads)]
				dev := devs[(c/2+i)%len(devs)].Name
				if code := postDevice(h, wl, dev); code != http.StatusOK {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	if n := s.st.failures.Value(); n != 0 {
		t.Fatalf("%d characterizations failed", n)
	}
	snap := s.st.snapshot()
	if snap.BatchesRun == 0 || snap.AvgOccupancy <= 1 {
		t.Fatalf("soak saw no real coalescing: batches_run=%d avg_occupancy=%v",
			snap.BatchesRun, snap.AvgOccupancy)
	}
	t.Logf("soak: %d batches, avg occupancy %.2f, %d cache hits, %d misses",
		snap.BatchesRun, snap.AvgOccupancy, snap.CacheHits, snap.CacheMiss)
}
