package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64  // the --seed value
	seconds float64 // length of the measured window
	scale   float64 // epoch-count multiplier; 1 is the benchmark's size
	workers int     // Workers for the untraced runs
	// want is the recorded digest passes must match ("" checks only that
	// passes agree with each other).
	want string
	// spansDir receives the traced run's spans.
	spansDir string
	// minTracedEpochs is the fewest epochs a traced run traces: a p99
	// rests on at least ten samples beyond it only from 1000 epochs on.
	minTracedEpochs int
	// log receives progress and failure lines.
	log io.Writer
}

// simSeed is the seed the simulations run with (Options.Seed and
// Spec.Seeds): the --seed value plus one, because the scenario engine
// reserves seed 0.
func (c config) simSeed() uint64 { return c.seed + 1 }

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one invocation's report.
type result struct {
	attempted, failed int
	metrics           []metric
	// info is printed with the metrics but left out of the JSON line: it
	// is not steady enough on a shared host to gate a change.
	info []metric
}

// pass is one timed end-to-end pass.
type pass struct {
	setupS, wallS, cpuS float64
	digest              string
}

// timed runs a pass's simulations and records their wall and CPU time.
func (p *pass) timed(run func() error) error {
	runtime.GC()
	c0, t0 := obs.CPUSeconds(), time.Now()
	err := run()
	p.wallS, p.cpuS = time.Since(t0).Seconds(), obs.CPUSeconds()-c0
	return err
}

// setupSim builds what a sim.Run pass needs before its first epoch: it
// validates the options, builds (and releases) the chip, builds the
// controllers and, when asked, the instruments. sim.Run builds its own
// chip again inside the measured window. On error it still returns the
// controllers it built, for the caller to close.
func setupSim(js []job, instrumented bool) ([]*instruments, []ctrl.Controller, error) {
	var ins []*instruments
	var cs []ctrl.Controller
	for _, j := range js {
		if err := j.opts.Validate(); err != nil {
			return ins, cs, err
		}
		chip, _, err := sim.NewChip(j.opts)
		if err != nil {
			return ins, cs, err
		}
		chip.Close()
		c, err := newController(j)
		if err != nil {
			return ins, cs, err
		}
		cs = append(cs, c)
		var in *instruments
		if instrumented {
			in = newInstruments(j.opts, instrumentNames...)
		}
		ins = append(ins, in)
	}
	return ins, cs, nil
}

// simPass runs one end-to-end pass of a sim.Run workload.
func simPass(w workload, js []job) (pass, error) {
	var (
		p   pass
		ins []*instruments
		cs  []ctrl.Controller
		err error
	)
	p.setupS, err = threadCPUSeconds(func() error {
		ins, cs, err = setupSim(js, w.instrumented)
		return err
	})
	defer func() {
		for _, c := range cs {
			closeController(c)
		}
	}()
	if err != nil {
		return p, err
	}
	outs := make([]outcome, len(js))
	err = p.timed(func() error {
		for i, j := range js {
			res, err := sim.Run(ins[i].attach(j.opts), cs[i])
			if err != nil {
				return err
			}
			outs[i] = resultOutcome(res)
		}
		return nil
	})
	p.digest = digestOutcomes(outs)
	return p, err
}

// setupGrid decodes and validates the grid spec and builds every job's
// chip and controller, as the engine does before each job's first epoch.
func setupGrid(js []job, spec []byte) (scenario.Spec, error) {
	s, err := scenario.LoadBytes(spec)
	if err != nil {
		return s, err
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	if _, err := s.Hash(); err != nil {
		return s, err
	}
	_, cs, err := setupSim(js, false)
	for _, c := range cs {
		closeController(c)
	}
	return s, err
}

// gridPass runs one end-to-end pass of the baseline grid through
// scenario.Engine with its result cache off.
func gridPass(js []job) (pass, error) {
	spec, err := gridSpec(js)
	if err != nil {
		return pass{}, err
	}
	var (
		p pass
		s scenario.Spec
	)
	p.setupS, err = threadCPUSeconds(func() error {
		s, err = setupGrid(js, spec)
		return err
	})
	if err != nil {
		return p, err
	}
	var eng scenario.Engine // no Cache: every pass simulates
	var tbl experiments.Table
	err = p.timed(func() error {
		tbl, _, err = eng.Run(s)
		return err
	})
	p.digest = digestTable(tbl)
	return p, err
}

// runEndToEnd runs passes of the workload for the configured window, after
// one warm-up pass, and reports the end-to-end metrics. Every pass's
// digest is checked; a pass that errors or disagrees counts as failed, and
// only a pass that errors goes untimed.
func runEndToEnd(w workload, cfg config) (result, error) {
	js := withWorkers(w.jobs(cfg.simSeed(), cfg.scale), cfg.workers)
	work := coreEpochs(js)
	onePass := func() (pass, error) {
		if w.engine {
			return gridPass(js)
		}
		return simPass(w, js)
	}
	check := digestCheck{want: cfg.want}
	var res result
	var rate, cpu, setup []float64
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	var start time.Time
	for i := 0; i == 0 || i == 1 || time.Since(start) < deadline; i++ {
		if i == 1 {
			start = time.Now() // pass 0 warms caches and is not timed
		}
		res.attempted++
		p, err := onePass()
		if err != nil {
			res.failed++
			fmt.Fprintf(cfg.log, "pass %d failed: %v\n", i, err)
			continue
		}
		if !check.add(p.digest) {
			res.failed++
			fmt.Fprintf(cfg.log, "pass %d digest %s disagrees (first %s, recorded %q)\n", i, p.digest, check.first, cfg.want)
		}
		if i > 0 {
			rate = append(rate, work/p.wallS)
			cpu = append(cpu, p.cpuS)
			setup = append(setup, p.setupS)
		}
	}
	if len(rate) == 0 {
		return res, fmt.Errorf("%s: no pass succeeded", w.name)
	}
	fmt.Fprintf(cfg.log, "%s: %d timed passes of %.0f core-epochs, digest %s\n", w.name, len(rate), work, check.first)
	res.metrics = []metric{
		{"cpu_s", "s", median(cpu)},
		{"setup_s", "s", median(setup)},
		{"peak_rss_mb", "MiB", peakRSSMiB()},
	}
	res.info = []metric{{"core_epochs_per_s", "core-epoch/s", median(rate)}}
	return res, nil
}

// runJob builds a job's controller and runs it through sim.Run with the
// given instruments (nil for none).
func runJob(in *instruments, j job) (sim.Result, error) {
	c, err := newController(j)
	if err != nil {
		return sim.Result{}, err
	}
	defer closeController(c)
	return sim.Run(in.attach(j.opts), c)
}
