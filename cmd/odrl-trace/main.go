// Command odrl-trace records and inspects workload phase traces, so the
// same workload realisation can be replayed across controller comparisons
// or shared between machines.
//
// Usage:
//
//	odrl-trace -record -benchmark canneal -dur 5 -o canneal.trace.json
//	odrl-trace -inspect canneal.trace.json
//	odrl-trace -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse+validate flags, then
// dispatch. Exit code 2 means the invocation was malformed, 1 means the
// work itself failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record    = fs.Bool("record", false, "record a new trace")
		inspect   = fs.String("inspect", "", "inspect an existing trace file")
		list      = fs.Bool("list", false, "list available benchmark presets")
		benchmark = fs.String("benchmark", "canneal", "benchmark preset to record")
		dur       = fs.Float64("dur", 5, "trace duration in seconds")
		seed      = fs.Uint64("seed", 1, "random seed")
		out       = fs.String("o", "", "output file (default stdout)")
	)
	ledgerFlags := ledger.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Exactly one mode; -record/-inspect/-list silently shadowing each
	// other would make "which trace did I just ship?" unanswerable.
	modes := 0
	for _, on := range []bool{*record, *inspect != "", *list} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		fs.Usage()
		return 2
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "odrl-trace: -record, -inspect and -list are mutually exclusive")
		return 2
	}
	if *record && !(*dur > 0) { // negated to also catch NaN
		fmt.Fprintf(stderr, "odrl-trace: -dur must be positive, got %v\n", *dur)
		return 2
	}
	if !*record && *out != "" {
		fmt.Fprintln(stderr, "odrl-trace: -o only applies to -record")
		return 2
	}

	// The ledger records trace work like any other run: tool, args, wall
	// time and status.
	lcli := ledgerFlags.Start("odrl-trace", args)
	runErr := func() error {
		switch {
		case *list:
			mid := 2.5e9
			fmt.Fprintln(stdout, "benchmark      CPI@2.5GHz  mem-bound  phase-changes/s")
			for _, name := range workload.PresetNames() {
				c, err := workload.Characterize(workload.MustPreset(name), *seed, 2.0, mid)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%-14s %-11.3f %-10.3f %.1f\n", name, c.MeanCPI, c.MemBoundedness, c.PhaseRatePerS)
			}

		case *record:
			obs.LogEvent(stderr, "record-config",
				"benchmark", *benchmark, "seed", *seed, "dur_s", *dur)
			spec, err := workload.Preset(*benchmark)
			if err != nil {
				return err
			}
			tr, err := workload.Record(spec, *seed, *dur)
			if err != nil {
				return err
			}
			w := stdout
			if *out != "" {
				f, err := os.Create(*out)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			if err := tr.WriteJSON(w); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "recorded %d entries over %.2f s\n", len(tr.Entries), tr.TotalDurS())

		case *inspect != "":
			f, err := os.Open(*inspect)
			if err != nil {
				return err
			}
			defer f.Close()
			tr, err := workload.ReadJSON(f)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace %q: %d phases, %d entries, %.2f s total\n",
				tr.Name, len(tr.Phases), len(tr.Entries), tr.TotalDurS())
			residency := make([]float64, len(tr.Phases))
			for _, e := range tr.Entries {
				residency[e.PhaseIdx] += e.DurS
			}
			for i, ph := range tr.Phases {
				fmt.Fprintf(stdout, "  phase %d (%s): CPI %.2f, MPKI %.1f, activity %.2f — %.1f%% of time\n",
					i, ph.Class, ph.BaseCPI, ph.MPKI, ph.Activity, 100*residency[i]/tr.TotalDurS())
			}
		}
		return nil
	}()
	lcli.Finish(runErr)
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl-trace:", runErr)
		return 1
	}
	return 0
}
