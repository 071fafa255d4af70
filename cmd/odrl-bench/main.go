// Command odrl-bench regenerates the paper's evaluation: every table and
// figure listed in DESIGN.md's experiment index.
//
// Usage:
//
//	odrl-bench                 # run everything at full fidelity
//	odrl-bench -experiment F2  # one experiment
//	odrl-bench -quick          # small/short runs for smoke checks
//
// Output is aligned text tables on stdout, one block per experiment, in the
// format EXPERIMENTS.md records.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/instrument"
	"repro/internal/obs/ledger"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchFlags carries every flag into the dispatch body.
type benchFlags struct {
	experiment, cacheDir, faultSpec string
	// bench is the selected -bench-<kind> mode ("" for none): "par",
	// "step" or an overhead layer's name; benchPath is its report file.
	bench, benchPath   string
	outDir, reportFile string
	quick              bool
	cores, workers     int
	budget             float64
	seed               uint64
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a bench or experiment failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment ID (T1, T2, F1..F10) or 'all'")
		cacheDir   = fs.String("cache", "", "content-addressed result cache directory shared with odrl-run ('' = no cache); only table runs are cached, never bench or report modes")
		quick      = fs.Bool("quick", false, "shrink runs for a fast smoke pass")
		cores      = fs.Int("cores", 0, "override platform core count")
		budget     = fs.Float64("budget", 0, "override chip budget (W)")
		seed       = fs.Uint64("seed", 0, "override random seed")
		workers    = fs.Int("j", 0, "worker goroutines for run fan-out and chip sharding (0 = one per CPU, 1 = sequential); results are identical for any value")
		faultSpec  = fs.String("fault-plan", "", "inject faults into every run: an intensity in [0,1] for the canonical plan, or a plan JSON file path (F18 sweeps its own plans)")
		outDir     = fs.String("o", "", "also write one CSV per experiment into this directory")
		reportFile = fs.String("report", "", "write a complete markdown report (claim verdicts + all tables) to this file and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file on clean exit (go tool pprof format)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on clean exit, after a final GC")
	)
	// One -bench-<kind> flag per bench mode, each naming its report file.
	benchPaths := map[string]*string{
		"par":  fs.String("bench-par", "", "measure sequential-vs-parallel wall clock and write a JSON report (e.g. BENCH_par.json) to this file, then exit"),
		"step": fs.String("bench-step", "", "measure single-thread epoch-kernel throughput (struct-of-arrays vs reference) and write a JSON report (e.g. BENCH_step.json) to this file, then exit non-zero if the speedup gate fails"),
	}
	for _, l := range experiments.OverheadLayers {
		benchPaths[l.Name] = fs.String("bench-"+l.Name, "", fmt.Sprintf(
			"measure the %[1]s layer's off-vs-on epoch-loop overhead and write a JSON report (e.g. BENCH_%[1]s.json) to this file, then exit non-zero if any case exceeds the %.1[2]f%% ceiling (-quick: short smoke run, no gate)",
			l.Name, l.MaxPct))
	}
	inst := instrument.Register(fs, 100)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var benches []string
	for kind, path := range benchPaths {
		if *path != "" {
			benches = append(benches, kind)
		}
	}
	if len(benches) > 1 {
		sort.Strings(benches)
		fmt.Fprintf(stderr, "odrl-bench: -bench-%s are exclusive; pass one bench mode per invocation\n",
			strings.Join(benches, ", -bench-"))
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "odrl-bench:", err)
				return
			}
			runtime.GC() // settle to live objects so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "odrl-bench:", err)
			}
			f.Close()
		}()
	}

	f := benchFlags{
		experiment: *experiment, cacheDir: *cacheDir, faultSpec: *faultSpec,
		outDir: *outDir, reportFile: *reportFile, quick: *quick,
		cores: *cores, workers: *workers, budget: *budget, seed: *seed,
	}
	if len(benches) == 1 {
		f.bench, f.benchPath = benches[0], *benchPaths[benches[0]]
	}
	// Every execution mode records a run. The bench modes open only the
	// ledger session, never the sim hooks: their off legs must stay
	// recorder-free or the comparison measures the recorder against itself.
	// They also fold their BENCH_*.json into the record so odrl-obs can
	// trend overheads across commits.
	var (
		code   int
		runErr error
	)
	if f.bench != "" {
		lcli := inst.Ledger.Start("odrl-bench", args)
		code, runErr = benchMain(stdout, lcli, f)
		lcli.Finish(runErr)
	} else {
		// Experiments assemble runs internally, so the instruments hook in
		// through the harness-level defaults the session installs.
		session, err := instrument.Start("odrl-bench", args, inst, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return instrument.ExitCode(err)
		}
		code, runErr = tablesMain(stdout, stderr, session.Ledger, f)
		session.Close(runErr)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl-bench:", runErr)
	}
	return code
}

// benchReport is the common shape of every bench mode's output.
type benchReport interface {
	WriteJSON(io.Writer) error
}

// emitBench renders a bench report once, records it in the run ledger (as
// both an artifact and per-case bench points), and writes the JSON file.
func emitBench(lcli *ledger.CLI, path, kind string, rep benchReport, points []ledger.BenchPoint) error {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	for _, p := range points {
		lcli.AddBenchPoint(kind, p.Case, p.Metric, p.Value)
	}
	lcli.AddArtifact(filepath.Base(path), buf.Bytes())
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// benchMain runs the one selected bench mode. The int is the process exit
// code; a non-nil error is both printed and recorded in the run ledger.
func benchMain(stdout io.Writer, lcli *ledger.CLI, f benchFlags) (int, error) {
	switch f.bench {
	case "par":
		rep, err := experiments.BenchPar(f.workers)
		if err != nil {
			return 1, err
		}
		var pts []ledger.BenchPoint
		for _, c := range rep.Cases {
			pts = append(pts, ledger.BenchPoint{Case: c.Name, Metric: "speedup", Value: c.Speedup})
		}
		if err := emitBench(lcli, f.benchPath, "par", rep, pts); err != nil {
			return 1, err
		}
		for _, c := range rep.Cases {
			fmt.Fprintf(stdout, "%-32s workers=%d  seq %.2fs  par %.2fs  speedup %.2fx\n",
				c.Name, c.Workers, c.SequentialS, c.ParallelS, c.Speedup)
		}
		fmt.Fprintf(stdout, "report written to %s (%d CPUs)\n", f.benchPath, rep.HostCPUs)
		return 0, nil

	case "step":
		rep, err := experiments.BenchStep(experiments.Config{Quick: f.quick})
		if err != nil {
			return 1, err
		}
		var pts []ledger.BenchPoint
		for _, c := range rep.Cases {
			pts = append(pts, ledger.BenchPoint{Case: c.Name, Metric: "speedup", Value: c.Speedup})
		}
		if err := emitBench(lcli, f.benchPath, "step", rep, pts); err != nil {
			return 1, err
		}
		for _, c := range rep.Cases {
			fmt.Fprintf(stdout, "%-24s cores=%-5d soa %10.0f ep/s  ref %9.0f ep/s  speedup %.2fx\n",
				c.Name, c.Cores, c.EpochsPerSec, c.ReferenceEpochsPerSec, c.Speedup)
		}
		fmt.Fprintf(stdout, "report written to %s (%d CPUs)\n", f.benchPath, rep.HostCPUs)
		if !f.quick && !rep.Gate.Pass {
			return 1, fmt.Errorf("throughput gate FAILED: %s speedup %.2fx < %.1fx",
				rep.Gate.Case, rep.Gate.Speedup, rep.Gate.MinSpeedup)
		}
		return 0, nil
	}

	// Every other mode is a row of the overhead table.
	var layer experiments.OverheadLayer
	for _, l := range experiments.OverheadLayers {
		if l.Name == f.bench {
			layer = l
		}
	}
	rep, err := experiments.BenchOverhead(layer, experiments.Config{Quick: f.quick})
	if err != nil {
		return 1, err
	}
	var pts []ledger.BenchPoint
	for _, c := range rep.Cases {
		pts = append(pts, ledger.BenchPoint{Case: c.Name, Metric: "overhead_frac", Value: c.OverheadFrac})
	}
	if err := emitBench(lcli, f.benchPath, layer.Name, rep, pts); err != nil {
		return 1, err
	}
	for _, c := range rep.Cases {
		fmt.Fprintf(stdout, "%-32s epochs=%d  off %.2fs  on %.2fs  overhead %.2f%%\n",
			c.Name, c.Epochs, c.OffS, c.OnS, 100*c.OverheadFrac)
	}
	fmt.Fprintf(stdout, "report written to %s (%d CPUs)\n", f.benchPath, rep.HostCPUs)
	if f.quick {
		return 0, nil
	}
	return overheadGate(stdout, layer, rep)
}

// overheadGate holds every case of an overhead report to the layer's
// ceiling: one pass or fail line per case, and exit code 1 if any case
// exceeds it.
func overheadGate(stdout io.Writer, layer experiments.OverheadLayer, rep experiments.OverheadReport) (int, error) {
	failed := 0
	for _, c := range rep.Cases {
		pct := 100 * c.OverheadFrac
		if pct > layer.MaxPct {
			fmt.Fprintf(stdout, "%s overhead %.2f%% exceeds %.1f%% ceiling\n", layer.Name, pct, layer.MaxPct)
			failed++
		} else {
			fmt.Fprintf(stdout, "%s overhead %.2f%% (ceiling %.1f%%)\n", layer.Name, pct, layer.MaxPct)
		}
	}
	if failed > 0 {
		return 1, fmt.Errorf("%s overhead gate FAILED: %d of %d cases exceed the %.1f%% ceiling",
			layer.Name, failed, len(rep.Cases), layer.MaxPct)
	}
	return 0, nil
}

// tablesMain runs the report or table modes under an instrumentation
// session. The int is the process exit code; a non-nil error is both
// printed and recorded in the run ledger.
func tablesMain(stdout, stderr io.Writer, lcli *ledger.CLI, f benchFlags) (int, error) {
	if f.outDir != "" {
		if err := os.MkdirAll(f.outDir, 0o755); err != nil {
			return 1, err
		}
	}

	cfg := experiments.Default()
	cfg.Quick = f.quick
	cfg.Workers = f.workers
	plan, err := fault.ParseSpec(f.faultSpec)
	if err != nil {
		return 1, err
	}
	cfg.FaultPlan = plan
	if f.cores > 0 {
		cfg.Cores = f.cores
	}
	if f.budget > 0 {
		cfg.BudgetW = f.budget
	}
	if f.seed > 0 {
		cfg.Seed = f.seed
	}

	if f.reportFile != "" {
		rf, err := os.Create(f.reportFile)
		if err != nil {
			return 1, err
		}
		ropts := experiments.ReportOptions{Config: cfg}
		if f.experiment != "all" {
			ropts.IDs = []string{f.experiment}
		}
		ropts.Elapsed = func(id string, d time.Duration) {
			fmt.Fprintf(stdout, "(%s finished in %.1fs)\n", id, d.Seconds())
		}
		werr := experiments.WriteReport(rf, ropts)
		cerr := rf.Close()
		if werr != nil || cerr != nil {
			return 1, fmt.Errorf("report: %v %v", werr, cerr)
		}
		fmt.Fprintf(stdout, "report written to %s\n", f.reportFile)
		return 0, nil
	}

	// Table runs go through the scenario engine: each experiment's
	// checked-in spec, with the CLI flags folded in as spec overrides, so
	// odrl-bench and odrl-run share one execution path and one cache.
	engine := &scenario.Engine{}
	if f.cacheDir != "" {
		cache, err := scenario.NewCache(f.cacheDir)
		if err != nil {
			return 1, err
		}
		engine.Cache = cache
	}
	specFor := func(id string) (scenario.Spec, error) {
		spec, err := scenario.Builtin(id)
		if err != nil {
			return scenario.Spec{}, err
		}
		spec.Quick = f.quick
		spec.Workers = f.workers
		spec.FaultPlan = plan
		if f.cores > 0 {
			spec.Cores = f.cores
		}
		if f.budget > 0 {
			spec.BudgetW = f.budget
		}
		if f.seed > 0 {
			spec.Seeds = []uint64{f.seed}
		}
		return spec, nil
	}

	runOne := func(id string) error {
		start := time.Now()
		spec, err := specFor(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tbl, info, err := engine.Run(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		lcli.RecordScenario(spec.Experiment, info.Hash, scenario.EngineVersion, info.CacheHit)
		if info.CacheHit {
			fmt.Fprintf(stderr, "odrl-bench: %s: cache hit %s\n", id, info.Hash)
		}
		if _, err := tbl.WriteTo(stdout); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if f.outDir != "" {
			path := filepath.Join(f.outDir, strings.ToLower(id)+".csv")
			cf, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			werr := tbl.WriteCSV(cf)
			cerr := cf.Close()
			if werr != nil || cerr != nil {
				return fmt.Errorf("%s: write %s failed", id, path)
			}
		}
		fmt.Fprintf(stdout, "(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
		return nil
	}

	if f.experiment == "all" {
		for _, e := range experiments.All() {
			if err := runOne(e.ID); err != nil {
				return 1, err
			}
		}
		return 0, nil
	}
	if _, err := experiments.ByID(f.experiment); err != nil {
		return 1, err
	}
	if err := runOne(f.experiment); err != nil {
		return 1, err
	}
	return 0, nil
}
