// Command nsprof profiles a single neuro-symbolic workload and prints the
// full characterization report: phase split, operator breakdown, memory,
// roofline placement, dataflow structure, stages and device projections.
//
// Usage:
//
//	nsprof -workload NVSA
//	nsprof -workload LNN -top 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

func main() {
	workload := flag.String("workload", "NVSA", "workload to profile: "+strings.Join(core.WorkloadNames(), ", "))
	device := flag.String("device", hwsim.RTX2080Ti.Name, "reference device for roofline analysis")
	top := flag.Int("top", 5, "number of hottest operators to list")
	jsonOut := flag.String("json", "", "write the raw trace as JSON to this file")
	reportOut := flag.String("report", "", "write the report summary as JSON to this file")
	chromeOut := flag.String("chrome-trace", "", "write a chrome://tracing / Perfetto timeline to this file")
	backendName := flag.String("backend", ops.BackendSerial, "execution backend: serial or parallel")
	workers := flag.Int("workers", 0, "parallel backend worker count (0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics", "", "dump runtime/pool/operator metrics (Prometheus text) to this file at exit (\"-\" = stderr)")
	logFormat := flag.String("log-format", logging.FormatText, "log output format: text or json")
	flag.Parse()

	if _, err := logging.Setup(os.Stderr, *logFormat, false); err != nil {
		fatal(err)
	}
	dev, err := hwsim.DeviceByName(*device)
	if err != nil {
		fatal(err)
	}
	w, err := core.BuildWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	eng := ops.Config{Backend: *backendName, Workers: *workers}
	if err := eng.Validate(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "profiling %s on the %s backend...\n", w.Name(), *backendName)
	pool := eng.NewPool()
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		metrics.NewGoCollector(reg)
		metrics.RegisterBuildInfo(reg)
		ops.RegisterPoolMetrics(reg, pool)
		pool.SetObserver(ops.NewOpObserver(reg))
	}
	r, err := core.Characterize(w, core.Options{Device: dev, Pool: pool})
	pool.Close()
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		if err := dumpMetrics(reg, *metricsOut); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("workload: %s (%s)\n", r.Name, r.Category)
	fmt.Printf("end-to-end: %v  neural %v (%.1f%%)  symbolic %v (%.1f%%)\n",
		r.Total, r.NeuralTime, 100*(1-r.SymbolicShare), r.SymbolicTime, 100*r.SymbolicShare)
	fmt.Printf("symbolic FLOP share: %.1f%%\n\n", 100*r.SymbolicFLOPShare)

	core.RenderFig3a(os.Stdout, []*core.Report{r})
	fmt.Println()
	core.RenderFig3b(os.Stdout, []*core.Report{r})
	fmt.Println()
	core.RenderFig3c(os.Stdout, []*core.Report{r}, dev)
	fmt.Println()
	core.RenderFig4(os.Stdout, []*core.Report{r})

	if len(r.Stages) > 0 {
		fmt.Println("\nstages:")
		fmt.Printf("  %-26s %12s %8s %10s\n", "stage", "time", "events", "sparsity")
		for _, s := range r.Stages {
			fmt.Printf("  %-26s %12v %8d %9.1f%%\n", s.Stage, s.Dur, s.Events, 100*s.Sparsity)
		}
	}

	fmt.Println("\nhottest operators:")
	for _, ev := range r.Trace.TopOps(*top) {
		fmt.Printf("  %-18s %-10s %-14s %12v  %8.2f MFLOP  %8.2f MiB\n",
			ev.Name, ev.Phase, ev.Category, ev.Dur,
			float64(ev.FLOPs)/1e6, float64(ev.Bytes)/(1<<20))
	}

	fmt.Println("\ndevice projections:")
	for _, p := range r.Projections {
		fmt.Printf("  %-16s %14v  symbolic %5.1f%%  energy %8.2f J\n",
			p.Device.Name, p.Total, 100*p.PhaseShare(trace.Symbolic), p.EnergyJ)
	}

	if *jsonOut != "" {
		if err := writeTo(*jsonOut, r.Trace.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "trace JSON written to", *jsonOut)
	}
	if *reportOut != "" {
		if err := writeTo(*reportOut, r.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "report JSON written to", *reportOut)
	}
	if *chromeOut != "" {
		if err := writeTo(*chromeOut, r.Trace.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "chrome trace written to", *chromeOut)
	}
}

// dumpMetrics writes the registry's Prometheus exposition to path ("-"
// selects stderr, keeping stdout clean for the report).
func dumpMetrics(reg *metrics.Registry, path string) error {
	if path == "-" {
		return reg.WriteProm(os.Stderr)
	}
	return writeTo(path, reg.WriteProm)
}

// writeTo streams an export function into a freshly created file.
func writeTo(path string, f func(io.Writer) error) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(fd); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsprof:", err)
	os.Exit(1)
}
