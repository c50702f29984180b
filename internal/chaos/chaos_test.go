package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
)

// chaosWorkload is a registry workload cheap enough to characterize
// thousands of times in the fast scenario test.
type chaosWorkload struct{ name string }

func (c *chaosWorkload) Name() string     { return c.name }
func (c *chaosWorkload) Category() string { return "Test" }
func (c *chaosWorkload) Run(e *ops.Engine) error {
	g := tensor.NewRNG(13)
	e.Add(g.Normal(0, 1, 64), g.Normal(0, 1, 64))
	return nil
}

var registerOnce sync.Once

func fastWorkloads() []string {
	registerOnce.Do(func() {
		core.RegisterWorkload("chaosfast-a", "Test", func() core.Workload { return &chaosWorkload{name: "chaosfast-a"} })
		core.RegisterWorkload("chaosfast-b", "Test", func() core.Workload { return &chaosWorkload{name: "chaosfast-b"} })
	})
	return []string{"chaosfast-a", "chaosfast-b"}
}

// eventKinds tallies a scenario's event log by kind.
func eventKinds(events []Event) map[string]int {
	out := map[string]int{}
	for _, ev := range events {
		out[ev.Kind]++
	}
	return out
}

// TestChaosScenarioHoldsInvariants is the always-on end of the harness:
// a short seeded scenario — 2 replicas + 1 runtime join, 1 crash with
// restart, latency and connection-drop fault windows, mixed traffic —
// must complete with every invariant green.
func TestChaosScenarioHoldsInvariants(t *testing.T) {
	var events bytes.Buffer
	res, err := Run(Config{
		Replicas:    2,
		Replication: 2,
		Seed:        42,
		Duration:    1500 * time.Millisecond,
		Clients:     2,
		Kills:       1,
		Joins:       1,
		Workloads:   fastWorkloads(),
		Devices:     []string{"RTX 2080 Ti", "Xavier NX"},
		Events:      &events,
	})
	if err != nil {
		t.Fatalf("scenario did not run: %v", err)
	}
	if verr := res.Err(); verr != nil {
		t.Fatalf("invariants violated: %v\nfailures: %+v", verr, res.Failures)
	}
	if res.Requests == 0 || res.ByKind["characterize"] == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	// 2 initial + 1 restart + 1 join = 4 generations.
	if res.Generations != 4 {
		t.Fatalf("generations = %d, want 4 (2 initial + restart + join)", res.Generations)
	}
	kinds := eventKinds(res.Events)
	for _, want := range []string{EventKill, EventRestart, EventJoin, EventFaultOn, EventFaultOff, EventCheck} {
		if kinds[want] == 0 {
			t.Errorf("event log has no %q event: %v", want, kinds)
		}
	}
	// 2 initial joins + 1 restart + 1 scheduled join announce themselves.
	if kinds[EventJoin] != 4 {
		t.Errorf("join events = %d, want 4", kinds[EventJoin])
	}

	// The sink received the same timeline as valid JSONL, in order.
	var seq int
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Bytes(), err)
		}
		if ev.Seq != seq {
			t.Fatalf("event seq %d out of order (want %d)", ev.Seq, seq)
		}
		seq++
	}
	if seq != len(res.Events) {
		t.Fatalf("sink saw %d events, result has %d", seq, len(res.Events))
	}
}

// TestChaosSeedDeterminesSchedule: two runs of the same seed produce the
// same fault timeline (same event kinds in the same order — timing
// jitter aside, the schedule is a pure function of seed and duration).
func TestChaosSeedDeterminesSchedule(t *testing.T) {
	run := func() []string {
		res, err := Run(Config{
			Replicas:  2,
			Seed:      7,
			Duration:  900 * time.Millisecond,
			Clients:   1,
			Kills:     1,
			Joins:     1,
			Workloads: fastWorkloads(),
			Devices:   []string{"RTX 2080 Ti"},
		})
		if err != nil {
			t.Fatalf("scenario did not run: %v", err)
		}
		var kinds []string
		for _, ev := range res.Events {
			// Traffic-dependent check details vary; the fault schedule is
			// the deterministic spine.
			switch ev.Kind {
			case EventKill, EventRestart, EventJoin, EventFaultOn, EventFaultOff:
				kinds = append(kinds, ev.Kind+":"+ev.Detail)
			}
		}
		return kinds
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed, different schedules:\n%v\nvs\n%v", a, b)
	}
}

// TestFaultProxyLatency: an injected delay is observed by the client and
// clears cleanly.
func TestFaultProxyLatency(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer backend.Close()
	p, err := NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.SetLatency(50 * time.Millisecond)
	start := time.Now()
	resp, err := http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("latency fault not applied: request took %v", d)
	}
	p.SetLatency(0)
	start = time.Now()
	resp, err = http.Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("latency fault did not clear: request took %v", d)
	}
}

// TestFaultProxyDrop: with drop-every-1 every connection is severed (a
// transport error, not an HTTP status); clearing restores service.
func TestFaultProxyDrop(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer backend.Close()
	p, err := NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.SetDropEvery(1)
	client := &http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get(p.URL()); err == nil {
		resp.Body.Close()
		t.Fatal("dropped connection still answered")
	}
	p.SetDropEvery(0)
	resp, err := client.Get(p.URL())
	if err != nil {
		t.Fatalf("proxy did not recover after clearing the drop fault: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok" {
		t.Fatalf("proxied body %q, want ok", b)
	}
}

// TestEventLogJSONL: records stream to the sink immediately as ordered
// JSON lines and stay available in memory.
func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Record(EventKill, "http://x:1", "gen1")
	l.Record(EventRestart, "http://y:2", "gen2")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d lines, want 2", len(lines))
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 0 || first.Kind != EventKill || first.Node != "http://x:1" {
		t.Fatalf("first event = %+v", first)
	}
	evs := l.Events()
	if len(evs) != 2 || evs[1].Seq != 1 || evs[1].Kind != EventRestart {
		t.Fatalf("in-memory events = %+v", evs)
	}
}
