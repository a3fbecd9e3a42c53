// Command perfbench is the repository benchmark: it runs one workload
// against the real `mpa serve` daemon over loopback HTTP, checks the
// answers, and prints every end-to-end metric (-trace 0); or it calls
// each layer's public functions in-process under the benchmark's own
// spans and prints the per-layer metrics (-trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it through perfbench/run.sh from the repository root, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits maps every end-to-end metric to its unit; per-layer units
// come from layerUnit.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"peak_rss_mib": "MiB",
	"warm_p50_ms":  "ms",
	"fleet_p50_ms": "ms",
	"ingest_ms":    "ms",
	"refresh_s":    "s",
	"probe_p99_ms": "ms",
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: dashboard or monthly")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "run length: the warm window on both workloads, and one refresh month per ten seconds on monthly")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against the daemon; 1: per-layer metrics from an in-process traced run")
	bin := flag.String("mpa", "", "path to the mpa binary")
	outDir := flag.String("out", ".", "directory for daemon logs and the Chrome trace")
	flag.Parse()

	w, err := workloadFor(*workloadName, *seconds)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res result
	switch *trace {
	case 0:
		if *bin == "" {
			fail(fmt.Errorf("-mpa is required for an end-to-end run"))
		}
		r, err := runE2E(ctx, w, *bin, *outDir, *seed)
		if err != nil {
			fail(err)
		}
		for _, n := range r.notes {
			fmt.Fprintln(os.Stderr, "  "+n)
		}
		res = result{Correct: r.problem == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
		for name, unit := range e2eUnits {
			v, ok := r.metrics[name]
			if !ok {
				fail(fmt.Errorf("workload %s produced no %s", w.name, name))
			}
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
		if r.problem != nil {
			fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", r.problem)
		}
	case 1:
		r, err := runTraced(ctx, w, *outDir, *seed)
		if err != nil {
			fail(err)
		}
		res = r
	default:
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	printTable(res)
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

// printTable writes the metrics to standard error, one per line.
func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
