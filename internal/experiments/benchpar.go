package experiments

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// BenchParCase is one timed sequential-vs-parallel comparison.
type BenchParCase struct {
	// Name identifies the workload being timed.
	Name string `json:"name"`
	// Workers is the parallel worker count the case ran with.
	Workers int `json:"workers"`
	// SequentialS and ParallelS are wall-clock seconds at Workers=1 and at
	// Workers (above), for identical work producing identical results.
	SequentialS float64 `json:"sequential_s"`
	ParallelS   float64 `json:"parallel_s"`
	// Speedup is SequentialS / ParallelS.
	Speedup float64 `json:"speedup"`
}

// BenchParReport is the machine-readable output of `odrl-bench -bench-par`
// (written as BENCH_par.json): wall-clock speedups of the parallel
// execution layer on this host. Results are bit-identical across worker
// counts, so the comparison is pure scheduling overhead vs parallelism.
type BenchParReport struct {
	obs.Host
	Workers int            `json:"workers"`
	Cases   []BenchParCase `json:"cases"`
}

// timeRun reports the wall-clock seconds of one invocation of fn.
func timeRun(fn func() error) (float64, error) {
	start := time.Now() //odrl:allow wallclock bench harness measures host wall-clock by design
	err := fn()
	return time.Since(start).Seconds(), err //odrl:allow wallclock bench harness measures host wall-clock by design
}

// benchParCase times fn at Workers=1 and at the requested worker count.
func benchParCase(name string, workers int, fn func(workers int) error) (BenchParCase, error) {
	// Warm once so first-use allocation and page faults don't bias the
	// sequential leg.
	if err := fn(1); err != nil {
		return BenchParCase{}, err
	}
	seqS, err := timeRun(func() error { return fn(1) })
	if err != nil {
		return BenchParCase{}, err
	}
	parS, err := timeRun(func() error { return fn(workers) })
	if err != nil {
		return BenchParCase{}, err
	}
	c := BenchParCase{Name: name, Workers: workers, SequentialS: seqS, ParallelS: parS}
	if parS > 0 {
		c.Speedup = seqS / parS
	}
	return c, nil
}

// BenchPar measures the parallel execution layer end to end: experiment
// fan-out (outer loop) and large-chip step sharding (inner loop), each at
// Workers=1 vs the requested worker count (0 = one per CPU).
func BenchPar(workers int) (BenchParReport, error) {
	workers = par.Workers(workers, 1<<30)
	rep := BenchParReport{
		Host:    obs.HostInfo(),
		Workers: workers,
	}

	// Outer loop: the F2 benchmark×controller sweep, cache reset between
	// timings so both legs do the full set of runs.
	c, err := benchParCase("experiment-fanout-f2-quick", workers, func(w int) error {
		resetSweepCache()
		_, err := F2Overshoot(Config{Quick: true, Workers: w})
		return err
	})
	if err != nil {
		return rep, err
	}
	rep.Cases = append(rep.Cases, c)

	// Outer loop at a second grain: the F7 budget sweep (independent full
	// runs, no memoisation involved).
	c, err = benchParCase("experiment-fanout-f7-quick", workers, func(w int) error {
		_, err := F7BudgetSweep(Config{Quick: true, Workers: w})
		return err
	})
	if err != nil {
		return rep, err
	}
	rep.Cases = append(rep.Cases, c)

	// Inner loop: stepping a 256-core chip (past the sharding threshold)
	// with no controller in the loop, isolating Chip.Step scaling.
	c, err = benchParCase("chip-step-256", workers, func(w int) error {
		opts := sim.DefaultOptions()
		opts.Cores = 256
		opts.Workers = w
		chip, _, err := sim.NewChip(opts)
		if err != nil {
			return err
		}
		for e := 0; e < 2000; e++ {
			chip.Step(opts.EpochS)
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.Cases = append(rep.Cases, c)
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r BenchParReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
