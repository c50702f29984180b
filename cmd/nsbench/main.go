// Command nsbench regenerates the tables and figures of "Towards Cognitive
// AI Systems: Workload and Characterization of Neuro-Symbolic AI"
// (ISPASS 2024) from the nsbench reimplementation.
//
// Usage:
//
//	nsbench -experiment all
//	nsbench -experiment fig2a|fig2b|fig2c|fig3a|fig3b|fig3c|fig4|fig5|tab1|tab4|sweep
//	nsbench -batch 8    # continuous-batching comparison: 1 batched pass of 8 vs 8 solo runs
//	nsbench -kernel-bench BENCH_kernels.json   # naive-vs-tiled kernel rooflines
//	nsbench -explore BENCH_explore.json        # design-space sweep over the cached NVSA trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to regenerate (fig2a, fig2b, fig2c, fig3a, fig3b, fig3c, fig4, fig5, tab1, tab4, sweep, recs, all)")
	device := flag.String("device", hwsim.RTX2080Ti.Name, "reference device for roofline and Table IV")
	backendName := flag.String("backend", ops.BackendSerial, "execution backend: serial or parallel")
	workers := flag.Int("workers", 0, "parallel backend worker count (0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics", "", "dump runtime/pool/operator metrics (Prometheus text) to this file at exit (\"-\" = stderr)")
	chromeTrace := flag.String("chrome-trace", "", "write the suite's merged operator timeline (Chrome trace-event JSON, loadable in Perfetto) to this file; needs a suite experiment (fig2a/fig3*/fig4/all)")
	batch := flag.Int("batch", 0, "run the continuous-batching comparison instead of -experiment: one CharacterizeBatch of N items vs N sequential solo runs, per workload (N >= 2)")
	kernelBench := flag.String("kernel-bench", "", "benchmark naive vs tiled kernels over the workload operator shapes and write the roofline table (BENCH_kernels.json format) to this file instead of running -experiment")
	explore := flag.String("explore", "", "run the design-space exploration smoke instead of -experiment: characterize -explore-workload once, sweep the default 256-point config space over the cached trace, and write the BENCH_explore.json artifact to this file")
	exploreWorkload := flag.String("explore-workload", "NVSA", "workload the -explore sweep characterizes and projects")
	logFormat := flag.String("log-format", logging.FormatText, "log output format: text or json")
	flag.Parse()

	if _, err := logging.Setup(os.Stderr, *logFormat, false); err != nil {
		fatal(err)
	}
	if *kernelBench != "" {
		if err := runKernelBench(*kernelBench); err != nil {
			fatal(err)
		}
		return
	}
	dev, err := hwsim.DeviceByName(*device)
	if err != nil {
		fatal(err)
	}
	eng := ops.Config{Backend: *backendName, Workers: *workers}
	if err := eng.Validate(); err != nil {
		fatal(err)
	}
	if *explore != "" {
		if err := runExplore(*explore, *exploreWorkload, dev, eng); err != nil {
			fatal(err)
		}
		return
	}
	if *batch != 0 {
		if *batch < 2 {
			fatal(fmt.Errorf("-batch needs N >= 2, got %d", *batch))
		}
		if err := runBatchCompare(*batch, dev, eng, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		metrics.NewGoCollector(reg)
		metrics.RegisterBuildInfo(reg)
	}
	if err := run(*experiment, dev, eng, reg, *chromeTrace); err != nil {
		fatal(err)
	}
	if reg != nil {
		if err := dumpMetrics(reg, *metricsOut); err != nil {
			fatal(err)
		}
	}
}

// dumpMetrics writes the registry's Prometheus exposition to path ("-"
// selects stderr, keeping stdout clean for the experiment tables).
func dumpMetrics(reg *metrics.Registry, path string) error {
	if path == "-" {
		return reg.WriteProm(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsbench:", err)
	os.Exit(1)
}

// runBatchCompare times, per registered workload, n sequential solo
// characterizations against one core.CharacterizeBatch of n items and
// prints the wall-clock speedup. Workloads with a native RunBatch fold
// the items into one engine pass and amortize their shared work; the
// rest run n solo passes, so their speedup is ~1x by construction — the
// table shows which is which.
func runBatchCompare(n int, dev hwsim.Device, eng ops.Config, out io.Writer) error {
	pool := eng.NewPool()
	defer pool.Close()
	opts := core.Options{Pool: pool, Device: dev}
	fmt.Fprintf(out, "Continuous batching — one CharacterizeBatch of n=%d vs n sequential solo runs\n", n)
	fmt.Fprintf(out, "%-16s %14s %14s %9s\n", "model", "sequential", "batched", "speedup")
	for _, name := range core.WorkloadNames() {
		seqStart := time.Now()
		for i := 0; i < n; i++ {
			wl, err := core.BuildWorkload(name)
			if err != nil {
				return err
			}
			if _, err := core.Characterize(wl, opts); err != nil {
				return err
			}
		}
		seq := time.Since(seqStart)
		wl, err := core.BuildWorkload(name)
		if err != nil {
			return err
		}
		batStart := time.Now()
		if _, err := core.CharacterizeBatch(wl, n, opts); err != nil {
			return err
		}
		bat := time.Since(batStart)
		fmt.Fprintf(out, "%-16s %14v %14v %8.2fx\n", name, seq.Round(time.Millisecond), bat.Round(time.Millisecond), float64(seq)/float64(bat))
	}
	return nil
}

// writeChromeTrace merges the suite reports' traces into one timeline and
// writes it as Chrome trace-event JSON. Each workload's events keep their
// wall-clock timestamps, so the merged view shows the suite end to end.
func writeChromeTrace(path string, reports []*core.Report) error {
	combined := trace.New()
	parts := make([]*trace.Trace, 0, len(reports))
	for _, r := range reports {
		if r != nil && r.Trace != nil {
			parts = append(parts, r.Trace)
		}
	}
	combined.Merge(parts...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := combined.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nsbench: wrote chrome trace to %s (open in https://ui.perfetto.dev)\n", path)
	return nil
}

// run dispatches one experiment (or all of them). All characterization
// runs borrow engines from one shared backend pool, torn down on return;
// a non-nil reg observes the pool and every operator executed on it. A
// non-empty chromeTrace writes the suite's merged timeline there.
func run(experiment string, dev hwsim.Device, eng ops.Config, reg *metrics.Registry, chromeTrace string) error {
	needSuite := map[string]bool{"fig2a": true, "fig3a": true, "fig3b": true, "fig3c": true, "fig4": true, "all": true}
	if chromeTrace != "" && !needSuite[experiment] {
		return fmt.Errorf("-chrome-trace needs a suite experiment (fig2a, fig3a, fig3b, fig3c, fig4, all), not %q", experiment)
	}
	pool := eng.NewPool()
	defer pool.Close()
	if reg != nil {
		ops.RegisterPoolMetrics(reg, pool)
		pool.SetObserver(ops.NewOpObserver(reg))
	}
	opts := core.Options{Pool: pool}

	var reports []*core.Report
	if needSuite[experiment] {
		fmt.Fprintln(os.Stderr, "running the seven-workload suite (NVSA and friends take a few hundred ms each)...")
		var err error
		reports, err = core.Fig2a(opts)
		if err != nil {
			return err
		}
		if chromeTrace != "" {
			if err := writeChromeTrace(chromeTrace, reports); err != nil {
				return err
			}
		}
	}

	section := func(f func() error) error {
		if err := f(); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	all := experiment == "all"
	out := os.Stdout
	if all || experiment == "tab1" {
		if err := section(func() error { core.RenderTab1(out); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig2a" {
		if err := section(func() error { core.RenderFig2a(out, reports); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig2b" {
		if err := section(func() error {
			rows, err := core.Fig2b(opts)
			if err != nil {
				return err
			}
			core.RenderFig2b(out, rows)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || experiment == "fig2c" {
		if err := section(func() error {
			rows, err := core.Fig2c(opts)
			if err != nil {
				return err
			}
			core.RenderFig2c(out, rows)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || experiment == "fig3a" {
		if err := section(func() error { core.RenderFig3a(out, reports); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig3b" {
		if err := section(func() error { core.RenderFig3b(out, reports); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig3c" {
		if err := section(func() error { core.RenderFig3c(out, reports, dev); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig4" {
		if err := section(func() error { core.RenderFig4(out, reports); return nil }); err != nil {
			return err
		}
	}
	if all || experiment == "fig5" {
		if err := section(func() error {
			rows, err := core.Fig5(opts)
			if err != nil {
				return err
			}
			core.RenderFig5(out, rows)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || experiment == "tab4" {
		if err := section(func() error {
			rows, err := core.Tab4(dev, opts)
			if err != nil {
				return err
			}
			core.RenderTab4(out, rows, dev)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || experiment == "recs" {
		if err := section(func() error {
			rec, err := core.RecommendationAblations([]int{1, 2, 4, 8, 16}, opts)
			if err != nil {
				return err
			}
			core.RenderRecommendations(out, rec)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || experiment == "sweep" {
		if err := section(func() error {
			rows, err := core.ScalabilitySweep([]int{1024, 2048, 4096, 8192}, opts)
			if err != nil {
				return err
			}
			fmt.Println("Extended sweep — NVSA hypervector dimension scalability")
			fmt.Printf("%-8s %14s %10s\n", "dim", "total", "symbolic%")
			for _, r := range rows {
				fmt.Printf("%-8d %14v %9.1f%%\n", r.Dim, r.Total, 100*r.SymbolicShare)
			}
			nrows, err := core.NLMScaleSweep([]int{16, 32, 64}, opts)
			if err != nil {
				return err
			}
			fmt.Println("Extended sweep — NLM universe-size scalability")
			fmt.Printf("%-8s %14s %10s\n", "objects", "total", "symbolic%")
			for _, r := range nrows {
				fmt.Printf("%-8d %14v %9.1f%%\n", r.Objects, r.Total, 100*r.SymbolicShare)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if !all {
		switch experiment {
		case "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "tab1", "tab4", "sweep", "recs":
		default:
			return fmt.Errorf("unknown experiment %q", experiment)
		}
	}
	return nil
}
