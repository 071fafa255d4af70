package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// gridControllers and gridBenchmarks are the baseline-grid axes, in the
// order the scenario engine runs its jobs (seed × workload × controller).
var (
	gridControllers = []string{"maxbips", "steepest-drop", "pid", "greedy", "static"}
	gridBenchmarks  = []string{"mix", "canneal", "swaptions"}
)

// workload is one named benchmark input: the simulations a pass runs and
// how they are driven.
type workload struct {
	name string
	// jobs returns the runs of one pass for a simulation seed, with epoch
	// counts multiplied by scale (1 is the benchmark's size; tests shrink
	// it). Every job's Workers is set by the caller.
	jobs func(seed uint64, scale float64) []job
	// engine marks a workload whose end-to-end pass goes through
	// scenario.Engine instead of sim.Run.
	engine bool
	// instrumented attaches the CLI instruments (tracer, monitor, learn
	// layer, flight recorder) to every end-to-end pass.
	instrumented bool
}

// job is one simulation: options plus the controller that drives it.
type job struct {
	opts       sim.Options
	controller string // sim factory name, or "od-rl-linear"
}

// epochs is the job's total epoch count, warmup included.
func (j job) epochs() int {
	w, m := j.opts.Epochs()
	return w + m
}

// scaled sizes a window of simulated seconds, keeping at least one epoch.
func scaled(s, scale, epochS float64) float64 {
	return math.Max(s*scale, epochS)
}

var workloads = []workload{
	{
		name: "odrl-1024",
		jobs: func(seed uint64, scale float64) []job {
			o := sim.DefaultOptions()
			o.Cores = 1024
			o.BudgetW = 1440
			o.Seed = seed
			o.WarmupS = scaled(0.1, scale, o.EpochS)
			o.MeasureS = scaled(0.5, scale, o.EpochS)
			return []job{{opts: o, controller: "od-rl"}}
		},
	},
	{
		name:   "baseline-grid",
		engine: true,
		jobs: func(seed uint64, scale float64) []job {
			var js []job
			for _, b := range gridBenchmarks {
				for _, c := range gridControllers {
					o := sim.DefaultOptions()
					o.Workload = b
					o.Seed = seed
					o.WarmupS = scaled(0.1, scale, o.EpochS)
					o.MeasureS = scaled(0.4, scale, o.EpochS)
					js = append(js, job{opts: o, controller: c})
				}
			}
			return js
		},
	},
	{
		name: "odrl-linear",
		jobs: func(seed uint64, scale float64) []job {
			o := sim.DefaultOptions()
			o.Seed = seed
			o.WarmupS = scaled(0.05, scale, o.EpochS)
			o.MeasureS = scaled(0.25, scale, o.EpochS)
			return []job{{opts: o, controller: "od-rl-linear"}}
		},
	},
	{
		name:         "observed-16",
		instrumented: true,
		jobs: func(seed uint64, scale float64) []job {
			o := sim.DefaultOptions()
			o.Cores = 16
			o.BudgetW = 24
			o.Seed = seed
			o.WarmupS = scaled(1, scale, o.EpochS)
			o.MeasureS = scaled(9, scale, o.EpochS)
			total := o.WarmupS + o.MeasureS
			o.BudgetSchedule = []sim.BudgetStep{
				{AtS: 0.4 * total, BudgetW: 18},
				{AtS: 0.7 * total, BudgetW: 24},
			}
			plan := fault.Scaled(0.5)
			o.FaultPlan = &plan
			return []job{{opts: o, controller: "od-rl"}}
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// withWorkers returns the jobs with every run's worker count set.
func withWorkers(js []job, workers int) []job {
	out := make([]job, len(js))
	for i, j := range js {
		j.opts.Workers = workers
		out[i] = j
	}
	return out
}

// coreEpochs is the simulated work of a set of jobs: cores × epochs.
func coreEpochs(js []job) float64 {
	var n float64
	for _, j := range js {
		n += float64(j.opts.Cores * j.epochs())
	}
	return n
}

// newController builds a job's controller for the environment its options
// imply. "od-rl-linear" is the tile-coded linear OD-RL(λ=0.7) variant of
// the F9 ablation, which the controller factory does not name.
func newController(j job) (ctrl.Controller, error) {
	env, err := sim.EnvFor(j.opts)
	if err != nil {
		return nil, err
	}
	if j.controller != "od-rl-linear" {
		return sim.NewController(j.controller, env)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = env.Seed
	cfg.Workers = env.Workers
	cfg.FunctionApprox = true
	cfg.TraceLambda = 0.7
	return core.New(env.Cores, env.VF, env.Power, cfg)
}

// closeController releases a controller's worker pool, if it has one.
func closeController(c ctrl.Controller) {
	if cl, ok := c.(io.Closer); ok {
		cl.Close()
	}
}

// gridSpec is the baseline-grid pass as a scenario spec: the same jobs as
// the workload's job list, in the same order.
func gridSpec(js []job) ([]byte, error) {
	o := js[0].opts
	return json.Marshal(scenario.Spec{
		Name:        "perfbench baseline-grid",
		Benchmarks:  gridBenchmarks,
		Controllers: gridControllers,
		Cores:       o.Cores,
		BudgetW:     o.BudgetW,
		WarmupS:     o.WarmupS,
		MeasureS:    o.MeasureS,
		Seeds:       []uint64{o.Seed},
		Workers:     o.Workers,
	})
}

// countingSink is a trace sink that discards lines and counts their bytes.
type countingSink struct{ bytes int64 }

func (s *countingSink) Emit(line []byte) error {
	s.bytes += int64(len(line))
	return nil
}

func (s *countingSink) Close() error { return nil }

// instruments is the set a CLI user attaches to a run: JSONL tracer at
// every epoch, run-health monitor, learning layer and flight recorder. Any
// of them may be nil.
type instruments struct {
	sink    *countingSink
	tracer  *obs.Tracer
	monitor *monitor.Monitor
	learn   *learn.Layer
	flight  *flight.Recorder
}

// instrument names, as used by the paired off/on legs.
const (
	instTracer  = "tracer"
	instMonitor = "monitor"
	instLearn   = "learn"
	instFlight  = "flight"
)

var instrumentNames = []string{instTracer, instMonitor, instLearn, instFlight}

// newInstruments builds the named instruments for a run with options o.
// The monitor evaluates the deterministic default rules, so its alert
// count is a pure function of the epoch stream.
func newInstruments(o sim.Options, names ...string) *instruments {
	in := &instruments{}
	for _, n := range names {
		switch n {
		case instTracer:
			in.sink = &countingSink{}
			in.tracer = obs.NewTracer(in.sink, obs.TracerOptions{Every: 1})
		case instMonitor:
			in.monitor = monitor.New(monitor.Options{
				Rules: monitor.DeterministicDefaultRules(o.BudgetW, o.EpochS),
			})
		case instLearn:
			in.learn = learn.New(learn.Options{})
		case instFlight:
			in.flight = flight.New(flight.Options{})
		}
	}
	return in
}

// attach returns the options with the instruments wired the way the CLIs
// wire them: flight recorder in front of the tracer, monitor and learn
// layer in their own slots, controller spans teed into the recorder.
func (in *instruments) attach(o sim.Options) sim.Options {
	if in == nil {
		return o
	}
	var next obs.Observer
	if in.tracer != nil {
		next = in.tracer
	}
	if in.flight != nil {
		next = in.flight.Wrap(next)
		o.SpanSink = in.flight.Timeline()
	}
	o.Observer = next
	o.Monitor = in.monitor
	o.Learn = in.learn
	return o
}

// alerts is the number of alerts the monitor fired.
func (in *instruments) alerts() int {
	if in == nil || in.monitor == nil {
		return 0
	}
	return in.monitor.AlertsFired()
}
