// Command nschaos runs a deterministic chaos/soak scenario against an
// in-process nsbench serving cluster: a real nsrouter with dynamic
// membership, N real nsserve replicas behind fault-injection proxies,
// seeded mixed traffic (characterize, bursts of identical requests,
// design-space sweeps), and a seeded fault schedule of hard kills,
// restarts that re-join the ring at runtime, extra joins, and
// latency/connection-drop windows.
//
// The run passes when the serving tier's availability contract held:
// zero failed requests, deterministic report fields byte-stable across
// replica generations, SLO error budgets not exhausted, and stitched
// cross-process traces still valid. Exit status 1 means an invariant
// broke; the JSONL event log (-events) is the timeline to debug from.
//
// Usage:
//
//	nschaos -duration 60s -replicas 3 -replication 2 -kills 2 -joins 1 \
//	  -seed 7 -clients 3 -events chaos-events.jsonl
//
// The same seed, duration, and topology replay the same schedule.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/neurosym/nsbench/internal/chaos"
	"github.com/neurosym/nsbench/internal/logging"
)

func main() {
	duration := flag.Duration("duration", 10*time.Second, "traffic window")
	replicas := flag.Int("replicas", 3, "initial replica count (min 2)")
	replication := flag.Int("replication", 2, "router cache fan-fill factor")
	seed := flag.Int64("seed", 1, "scenario seed (traffic mix, victim choice)")
	clients := flag.Int("clients", 2, "concurrent traffic generators")
	kills := flag.Int("kills", 2, "crash+restart cycles (-1 for none)")
	joins := flag.Int("joins", 1, "extra runtime joins (-1 for none)")
	workloads := flag.String("workloads", "LNN,LTN", "comma-separated registry workloads to drive")
	devices := flag.String("devices", "RTX 2080 Ti,Xavier NX", "comma-separated hwsim devices to drive")
	events := flag.String("events", "", "JSONL event-log path (empty = discard)")
	verbose := flag.Bool("v", false, "log router per-request lines to stderr")
	flag.Parse()

	var sink io.Writer
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = f
	}
	cfg := chaos.Config{
		Replicas:    *replicas,
		Replication: *replication,
		Seed:        *seed,
		Duration:    *duration,
		Clients:     *clients,
		Kills:       *kills,
		Joins:       *joins,
		Workloads:   splitList(*workloads),
		Devices:     splitList(*devices),
		Events:      sink,
	}
	if *verbose {
		logger, err := logging.Setup(os.Stderr, logging.FormatText, false)
		if err != nil {
			fatal(err)
		}
		cfg.Logger = logger
	}

	fmt.Fprintf(os.Stderr, "nschaos: seed=%d duration=%s replicas=%d replication=%d kills=%d joins=%d clients=%d\n",
		*seed, *duration, *replicas, *replication, *kills, *joins, *clients)
	res, err := chaos.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("requests=%d generations=%d events=%d\n", res.Requests, res.Generations, len(res.Events))
	kinds := make([]string, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %s=%d\n", k, res.ByKind[k])
	}
	budgets := make([]string, 0, len(res.SLOBudgets))
	for name := range res.SLOBudgets {
		budgets = append(budgets, name)
	}
	sort.Strings(budgets)
	for _, name := range budgets {
		fmt.Printf("slo %s budget_remaining=%.4f\n", name, res.SLOBudgets[name])
	}
	fmt.Printf("traces validated=%d\n", res.TracesValidated)

	if verr := res.Err(); verr != nil {
		fmt.Printf("invariants: FAILED: %v\n", verr)
		for i, f := range res.Failures {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(res.Failures)-10)
				break
			}
			fmt.Printf("  [%s] %s\n", f.Kind, f.Detail)
		}
		os.Exit(1)
	}
	fmt.Println("invariants: ok")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nschaos:", err)
	os.Exit(1)
}
