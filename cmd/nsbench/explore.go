package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
)

// runExplore is the in-process design-space smoke: characterize the
// workload once, sweep the default 256-point space over the cached trace,
// and write the BENCH_explore.json artifact — including the measured
// trace-once/project-many advantage over re-characterizing per point
// (ReprojectionSpeedup), the number the acceptance criteria pin at >= 50x.
func runExplore(path, workload string, dev hwsim.Device, eng ops.Config) error {
	pool := eng.NewPool()
	defer pool.Close()

	wl, err := core.BuildWorkload(workload)
	if err != nil {
		return err
	}
	charStart := time.Now()
	report, err := core.Characterize(wl, core.Options{Pool: pool, Device: dev})
	if err != nil {
		return err
	}
	charDur := time.Since(charStart)

	grid, err := dse.Resolve(dev, dse.DefaultSpace())
	if err != nil {
		return err
	}
	engine := dse.NewEngine(grid, report.Trace)
	sum, err := engine.Sweep(context.Background(), 0, 1, nil)
	if err != nil {
		return err
	}

	art := dse.Artifact{
		Workload:       workload,
		Device:         dev.Name,
		GridSize:       grid.Size(),
		Evaluated:      sum.Evaluated,
		Failed:         sum.Failed,
		ElapsedNs:      sum.ElapsedNs,
		PointsPerSec:   sum.PointsPerSec,
		FrontSize:      sum.FrontSize,
		Front:          sum.Front,
		CharacterizeNs: charDur.Nanoseconds(),
	}
	if s := charDur.Seconds(); s > 0 {
		art.RecharPointsPerSec = 1 / s
	}
	if art.RecharPointsPerSec > 0 {
		art.ReprojectionSpeedup = art.PointsPerSec / art.RecharPointsPerSec
	}

	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("Design-space exploration — %s on a space over %s\n", workload, dev.Name)
	fmt.Printf("%-24s %d points (%d failed)\n", "grid", art.Evaluated, art.Failed)
	fmt.Printf("%-24s %v\n", "characterize (once)", charDur.Round(time.Microsecond))
	fmt.Printf("%-24s %v (%.0f points/s)\n", "sweep",
		time.Duration(art.ElapsedNs).Round(time.Microsecond), art.PointsPerSec)
	fmt.Printf("%-24s %.0fx\n", "re-projection speedup", art.ReprojectionSpeedup)
	fmt.Printf("%-24s %d points on the latency x cost front\n", "pareto", art.FrontSize)
	fmt.Fprintf(os.Stderr, "nsbench: wrote %s\n", path)
	return nil
}
