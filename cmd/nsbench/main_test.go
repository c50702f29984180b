package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/ops"
)

func TestRunSingleExperiments(t *testing.T) {
	// Exercise the cheap experiment paths end-to-end (the heavyweight
	// figure suite is covered by internal/core tests and the benchmarks).
	for _, exp := range []string{"tab1", "fig5", "tab4"} {
		if err := run(exp, hwsim.RTX2080Ti, ops.Config{}, nil, ""); err != nil {
			t.Fatalf("run(%s): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", hwsim.RTX2080Ti, ops.Config{}, nil, ""); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestRunWithMetrics checks the -metrics path: a characterization run on
// an observed pool leaves operator timings in the registry.
func TestRunWithMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	metrics.NewGoCollector(reg)
	if err := run("tab4", hwsim.RTX2080Ti, ops.Config{}, reg, ""); err != nil {
		t.Fatalf("run(tab4): %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ns_op_seconds_count", "ns_backend_workers", "go_goroutines "} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
}

// TestChromeTraceNeedsSuite pins the flag contract: -chrome-trace only
// makes sense for experiments that run the workload suite.
func TestChromeTraceNeedsSuite(t *testing.T) {
	if err := run("tab1", hwsim.RTX2080Ti, ops.Config{}, nil, t.TempDir()+"/t.json"); err == nil {
		t.Fatal("-chrome-trace with a non-suite experiment must error")
	}
}

// TestRunBatchCompare runs the -batch table at n=2 over the registry: every
// registered workload gets one row (a solo and a batched characterization
// of each must succeed).
func TestRunBatchCompare(t *testing.T) {
	var buf bytes.Buffer
	if err := runBatchCompare(2, hwsim.RTX2080Ti, ops.Config{}, &buf); err != nil {
		t.Fatalf("runBatchCompare: %v", err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(line, "x") {
			rows[f[0]] = true
		}
	}
	for _, name := range core.WorkloadNames() {
		if !rows[name] {
			t.Errorf("no row for %s in:\n%s", name, buf.String())
		}
	}
}
