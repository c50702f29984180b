package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/neurosym/nsbench/internal/ops"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its record
// and, as the last line, its result. It returns the exit code: non-zero
// when the run could not complete or any request failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hit-zipf or symbolic-closed")
	seed := fs.Int64("seed", 1, "workload seed: fixes the arrival schedule, key order and trace sample")
	seconds := fs.Float64("seconds", 45, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: need --workload <name>, --seconds > 0 and --trace 0|1:", err)
		return 2
	}
	rec, res, err := execute(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		for _, e := range rec.Errors {
			fmt.Fprintln(stderr, "e2ebench: failed request:", e)
		}
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counts tallies one window's requests.
type counts struct {
	Window     string `json:"window"`
	Sent       int    `json:"sent"`
	Succeeded  int    `json:"succeeded"`
	Failed     int    `json:"failed"`
	Refused    int    `json:"refused"`
	Unanswered int    `json:"unanswered"`
	// ClassShare is each workload class's share of the requests sent.
	ClassShare map[string]float64 `json:"class_share"`
}

// record is the line before the result: how the run was made.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Stack      StackConfig `json:"stack"`
	Conns      int         `json:"connections"`
	ZipfS      float64     `json:"zipf_s,omitempty"`
	SLOMs      float64     `json:"slo_ms"`
	SetupS     []float64   `json:"setup_s"`
	Windows    []counts    `json:"windows"`
	HostBefore hostCalib   `json:"host_before"`
	HostAfter  hostCalib   `json:"host_after"`
	Errors     []string    `json:"errors,omitempty"`
}

// setupReps is how many times a run builds and warms the stack; setup_s
// is their median. The last stack built serves the measured windows.
const setupReps = 5

// measured is one window's summary plus the process resources it used.
type measured struct {
	// win keeps the per-request samples only for a window whose layers
	// are attributed; otherwise they are dropped before the heap is read.
	win        window
	p0, p1     procSnap
	heapMB     float64
	c          counts
	p50, p90   float64 // latency of succeeded requests, ms
	good       int     // succeeded within the latency limit
	mismatches int
}

func (m *measured) completed() float64 {
	return float64(m.c.Succeeded + m.c.Failed + m.c.Refused)
}

func execute(w *workload, seed int64, seconds float64, traced bool) (*record, *result, error) {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Stack: newStackConfig(w.cacheSize), Conns: w.clients, ZipfS: w.zipfS, SLOMs: w.sloMs,
	}
	rec.HostBefore = calibrate()

	pool := ops.Config{Backend: ops.BackendParallel}.NewPool()
	defer pool.Close()
	ks := w.keys()
	refs, err := references(ks, pool)
	if err != nil {
		return nil, nil, fmt.Errorf("computing references: %w", err)
	}
	sched := w.schedule(seed, seconds)

	var st *stack
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.Close()
			st = nil
		}
		t0 := time.Now()
		if st, err = newStack(rec.Stack); err != nil {
			return nil, nil, err
		}
		if err := warm(st, w, ks, refs); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}

	plain := measureWindow(st, w, ks, refs, sched, seed, seconds, false, rec)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	windows := []*measured{plain}
	if !traced {
		e2eMetrics(res.Metrics, plain, median(rec.SetupS))
	} else {
		before, err := readCounters(st)
		if err != nil {
			return nil, nil, err
		}
		tm := measureWindow(st, w, ks, refs, sched, seed, seconds, true, rec)
		after, err := readCounters(st)
		if err != nil {
			return nil, nil, err
		}
		windows = append(windows, tm)
		if err := layerMetrics(res.Metrics, w, ks, pool, plain, tm, diffCounters(before, after)); err != nil {
			return nil, nil, err
		}
	}
	st.Close()
	st = nil
	rec.HostAfter = calibrate()
	if traced {
		res.Metrics["host.calib_cpu_ms"] = metric{(rec.HostBefore.CPUMs + rec.HostAfter.CPUMs) / 2, "ms"}
		res.Metrics["host.calib_mem_ms"] = metric{(rec.HostBefore.MemMs + rec.HostAfter.MemMs) / 2, "ms"}
	}
	for _, m := range windows {
		res.Attempted += m.c.Sent
		res.Failed += m.c.Sent - m.c.Succeeded
		if m.mismatches > 0 {
			res.Correct = false
		}
	}
	return rec, res, nil
}

// warm brings a new stack to its measured state: hit-zipf cold-fills every
// key once through the router; the miss workloads send one discarded
// request per workload class. Every answer is checked.
func warm(st *stack, w *workload, ks []key, refs []string) error {
	g := newLoadgen(w, st, ks, refs, 0, 0, false)
	defer g.close()
	v := newVerifier(refs)
	var buf bytes.Buffer
	for i, k := range ks {
		if w.cacheSize < 0 && i > 0 && ks[i-1].Workload == k.Workload {
			continue
		}
		s, d := g.do(context.Background(), v, &buf, i, arrival{Key: int32(i)}, time.Now())
		if s.outcome != ok {
			return fmt.Errorf("%s on %s: %s", k.Workload, k.Device, d.err)
		}
	}
	return nil
}

// measureWindow runs one window of the schedule and records the process
// resources it used. An untraced window's per-request samples are
// summarized and dropped before the live heap is read, so the figure does
// not grow with the number of requests the window completed; a traced
// window keeps them for the layer attribution.
func measureWindow(st *stack, w *workload, ks []key, refs []string, sched []arrival, seed int64, seconds float64, traced bool, rec *record) *measured {
	g := newLoadgen(w, st, ks, refs, seed, seconds, traced)
	defer g.close()
	runtime.GC()
	m := &measured{p0: snapProc()}
	m.win = g.run(sched)
	m.p1 = snapProc()
	m.c.Window = "untraced"
	if traced {
		m.c.Window = "traced"
	}
	lat := make([]float64, 0, len(m.win.samples))
	perClass := map[string]int{}
	for _, s := range m.win.samples {
		m.c.Sent++
		perClass[ks[s.key].Workload]++
		switch s.outcome {
		case ok:
			m.c.Succeeded++
			lat = append(lat, ms(s.latency))
			if ms(s.latency) <= w.sloMs {
				m.good++
			}
		case failed:
			m.c.Failed++
		case refused:
			m.c.Refused++
		case unanswered:
			m.c.Unanswered++
		}
		if s.mismatch {
			m.mismatches++
		}
	}
	m.c.ClassShare = map[string]float64{}
	for c, n := range perClass {
		m.c.ClassShare[c] = float64(n) / float64(m.c.Sent)
	}
	for i := 0; i < len(m.win.samples) && len(rec.Errors) < 5; i++ {
		if d := m.win.details[i]; d != nil && d.err != "" {
			rec.Errors = append(rec.Errors, d.err)
		}
	}
	sort.Float64s(lat)
	m.p50, m.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	if !traced {
		m.win.samples, m.win.details = nil, nil
	}
	m.heapMB = liveHeapMB()
	rec.Windows = append(rec.Windows, m.c)
	return m
}

// e2eMetrics fills the end-to-end metrics of an untraced window.
func e2eMetrics(out map[string]metric, m *measured, setupS float64) {
	n := m.completed()
	out["setup_s"] = metric{setupS, "s"}
	out["latency_p50_ms"] = metric{m.p50, "ms"}
	out["latency_p90_ms"] = metric{m.p90, "ms"}
	out["throughput_rps"] = metric{float64(m.c.Succeeded) / m.win.elapsed.Seconds(), "1/s"}
	out["slo_ok_ratio"] = metric{float64(m.good) / float64(m.c.Sent), "ratio"}
	out["cpu_ms_per_req"] = metric{ms(m.p1.cpu-m.p0.cpu) / n, "ms"}
	out["alloc_kb_per_req"] = metric{float64(m.p1.totalAlloc-m.p0.totalAlloc) / 1024 / n, "KiB"}
	out["heap_live_mb"] = metric{m.heapMB, "MiB"}
}
