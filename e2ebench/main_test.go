package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/trace"
)

func TestScheduleIsFixedBySeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.schedule(7, 5), w.schedule(7, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", w.name)
		}
		if c := w.schedule(8, 5); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

// TestMixIsFixed checks that seeds change only the order of requests: the
// key counts of whole schedules agree, and every key is requested.
func TestMixIsFixed(t *testing.T) {
	for _, w := range workloads {
		tally := func(seed int64) map[int32]int {
			m := map[int32]int{}
			for _, a := range w.schedule(seed, 5) {
				m[a.Key]++
			}
			return m
		}
		a, b := tally(7), tally(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave different key mixes", w.name)
		}
		if len(a) != len(w.keys()) {
			t.Errorf("%s: %d of %d keys requested", w.name, len(a), len(w.keys()))
		}
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	span := func(start, dur int64) trace.WireSpan { return trace.WireSpan{StartUnixNs: start, DurNs: dur} }
	// Children overlap each other and stick out of the parent on both
	// sides; only [10,40) and [60,70) of [0,100) are covered.
	got := selfTime(span(0, 100), []trace.WireSpan{span(-5, 15), span(5, 20), span(20, 20), span(60, 10), span(120, 5)})
	if want := time.Duration(100 - 40 - 10); got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (e2e, layers []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// TestSmoke runs every workload briefly, untraced and traced: each run must
// pass the output check and print exactly the promised metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	e2e, layers := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", traced}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced == "1" {
				want = layers
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, traced, len(got), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.name, traced, name)
				}
			}
		}
	}
}
