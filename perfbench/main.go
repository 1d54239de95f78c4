// Command perfbench is the repository benchmark. From one process it sets up
// a spilly engine for one workload, runs a closed loop of TPC-H queries
// against it through the public API, checks every result against reference
// results, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload spill-sweep --seed 1 --seconds 35 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// minOps is the fewest ops a measured phase runs, so that
	// latency_p90_ms keeps at least 10 samples above it.
	minOps int
	// spansDir receives the traced run's spans file.
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setupReps: 5, minOps: 110, spansDir: ".bench_build/spans"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (query order and op stream)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and writes a human-readable summary to w.
func run(o options, w io.Writer) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	b := &bench{wl: wl, opts: o}
	var (
		mets map[string]metric
		err  error
	)
	if o.trace {
		mets, err = b.traced()
	} else {
		mets, err = b.untraced()
	}
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   mets,
	}
	printSummary(w, b, rep)
	return rep, nil
}

func printSummary(w io.Writer, b *bench, rep *report) {
	o := b.opts
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d mode=%s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "  ops attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, n := range b.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, msg := range b.failures {
		fmt.Fprintf(w, "  FAILED %s\n", msg)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if b.spansFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", b.spansFile)
	}
}
