// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public API for a fixed time, checks the
// simulated outputs, and prints its metrics by name with their units; the
// last line of standard output is one JSON object with every metric.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload odrl-1024 --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs. --trace 1
// drives the same epoch loop from this package, records a span around each
// call into a layer, replays each kernel component at the workload's size,
// and reports the per-layer metrics. README.md lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses flags, runs the workload and prints the report. It returns
// the process exit code: 2 for bad flags, 1 when the workload could not
// produce metrics.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload name: odrl-1024, baseline-grid, odrl-linear or observed-16")
		seed     = fs.Uint64("seed", defaultSeed, "workload seed; the simulations run with seed+1 (the scenario engine reserves seed 0)")
		seconds  = fs.Float64("seconds", 25, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer metrics")
		spansDir = fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%v), --seconds > 0 and --trace 0|1\n", err)
		return 2
	}
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		scale:    1,
		workers:  runtime.GOMAXPROCS(0),
		spansDir: *spansDir,
		log:      stdout,
		// A p99 rests on at least ten samples beyond it.
		minTracedEpochs: 1000,
	}
	if *seed == defaultSeed {
		if cfg.want, err = recordedDigest(w.name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	host, err := json.Marshal(obs.HostInfo())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(w, cfg)
	} else {
		res, err = runTraced(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints every metric on its own line, then the printed-only
// values and the failure ratio, then the JSON result line.
func report(w io.Writer, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	for _, m := range res.info {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-40s %14.6g %s\n", "failed_frac", float64(res.failed)/float64(res.attempted), "ratio")
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
