package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// minRounds is the fewest measurement rounds a traced run makes, however
// short its window.
const minRounds = 3

// layerNames lists every per-layer metric with its unit, in report order.
// A metric whose layer does no work in a workload reports 0 there.
var layerNames = func() [][2]string {
	ms := [][2]string{
		{"sim.epoch_us_p50", "us"}, {"sim.epoch_us_p99", "us"},
		{"sim.loop_self_ns_per_epoch", "ns"}, {"sim.allocs_per_epoch", "count"},
		{"manycore.step_ns_per_epoch", "ns"}, {"manycore.setlevel_ns_per_epoch", "ns"},
		{"manycore.shard_speedup", "ratio"}, {"manycore.unattributed_frac", "ratio"},
		{"rng.noise_ns_per_epoch", "ns"}, {"power.leakage_ns_per_epoch", "ns"},
		{"thermal.step_ns_per_epoch", "ns"}, {"workload.advance_ns_per_epoch", "ns"},
		{"core.decide_us_p50", "us"}, {"core.decide_us_p99", "us"},
		{"core.local_s", "s"}, {"core.global_s", "s"},
		{"rl.linear_step_ns", "ns"}, {"rl.decide_share", "ratio"},
	}
	for _, c := range gridControllers {
		ms = append(ms, [2]string{"baselines." + c + ".decide_us_p50", "us"},
			[2]string{"baselines." + c + ".decide_us_p99", "us"})
	}
	return append(ms, [][2]string{
		{"ctrl.powerat_ns", "ns"},
		{"scenario.fanout_util", "ratio"}, {"scenario.straggler_s", "s"},
		{"scenario.spec_decode_us", "us"},
		{"fault.events", "count"}, {"fault.tick_ns_per_epoch", "ns"},
		{"obs.tracer_ns_per_epoch", "ns"}, {"obs.monitor_ns_per_epoch", "ns"},
		{"obs.learn_ns_per_epoch", "ns"}, {"obs.flight_ns_per_epoch", "ns"},
		{"obs.trace_bytes_per_epoch", "B/epoch"}, {"obs.alerts", "count"},
		{"setup.chip_ms", "ms"}, {"setup.controller_ms", "ms"},
		{"setup.instruments_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// samples collects the per-round samples of each metric; the report takes
// their median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// tracer holds the state of one traced run.
type tracer struct {
	w        workload
	cfg      config
	par, seq []job // the pass at cfg.workers and at Workers=1
	epochs   float64
	res      result
	check    digestCheck
	s        samples
	// durations of epoch and decide spans across every traced leg, in ns
	epochNs  []float64
	decideNs map[string][]float64
	written  bool
	legs     int
}

// runTraced measures the per-layer metrics of a workload. It first runs one
// untraced pass at cfg.workers as the reference digest, then makes rounds
// until the window is spent: each round runs the driven loop at Workers=1
// untraced and traced (alternating which goes first), replays each kernel
// component at the workload's size, and for the instrumented workload runs
// one off/on leg pair per instrument. Every pass's digest must equal the
// reference's.
func runTraced(w workload, cfg config) (result, error) {
	base := w.jobs(cfg.simSeed(), cfg.scale)
	t := &tracer{
		w: w, cfg: cfg,
		par:      withWorkers(base, cfg.workers),
		seq:      withWorkers(base, 1),
		check:    digestCheck{want: cfg.want},
		s:        samples{},
		decideNs: map[string][]float64{},
	}
	for _, j := range base {
		t.epochs += float64(j.epochs())
	}
	if err := t.reference(); err != nil {
		return t.res, err
	}
	rp, err := newReplays(w, t.seq, cfg)
	if err != nil {
		return t.res, err
	}
	defer rp.close()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < deadline || len(t.epochNs) < cfg.minTracedEpochs; r++ {
		if err := t.round(r, rp); err != nil {
			return t.res, err
		}
	}
	fmt.Fprintf(cfg.log, "%s: %d traced legs, %d traced epochs, digest %s\n", w.name, t.legs, len(t.epochNs), t.check.first)
	return t.report(), nil
}

// verify checks one pass's digest against the reference.
func (t *tracer) verify(what, dg string, err error) {
	t.res.attempted++
	switch {
	case err != nil:
		t.res.failed++
		fmt.Fprintf(t.cfg.log, "%s failed: %v\n", what, err)
	case !t.check.add(dg):
		t.res.failed++
		fmt.Fprintf(t.cfg.log, "%s digest %s disagrees (reference %s, recorded %q)\n", what, dg, t.check.first, t.cfg.want)
	}
}

// reference runs the untraced pass at cfg.workers whose digest every
// traced pass must reproduce, counting its allocations and, for the grid,
// its fan-out.
func (t *tracer) reference() error {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var dg string
	var err error
	if t.w.engine {
		dg, err = t.gridReference()
	} else {
		var ins *instruments
		if t.w.instrumented {
			ins = newInstruments(t.par[0].opts, instrumentNames...)
		}
		var outs []outcome
		for _, j := range t.par {
			var res sim.Result
			if res, err = runJob(ins, j); err != nil {
				break
			}
			outs = append(outs, resultOutcome(res))
		}
		dg = digestOutcomes(outs)
		if ins != nil {
			t.s.add("obs.alerts", float64(ins.alerts()))
		}
	}
	runtime.ReadMemStats(&ms1)
	t.verify("reference pass", dg, err)
	if err != nil {
		return err
	}
	t.s.add("sim.allocs_per_epoch", float64(ms1.Mallocs-ms0.Mallocs)/t.epochs)
	return nil
}

// gridReference runs the grid through the engine with a job timer
// installed, and records the fan-out of its jobs.
func (t *tracer) gridReference() (string, error) {
	spec, err := gridSpec(t.par)
	if err != nil {
		return "", err
	}
	s, err := scenario.LoadBytes(spec)
	if err != nil {
		return "", err
	}
	jt := &jobTimer{start: time.Now()}
	sim.DefaultObserver = jt
	defer func() { sim.DefaultObserver = nil }()
	var eng scenario.Engine
	tbl, _, err := eng.Run(s)
	wall := time.Since(jt.start).Seconds()
	if err != nil {
		return "", err
	}
	util, straggler := jt.fanout(wall, t.cfg.workers)
	t.s.add("scenario.fanout_util", util)
	t.s.add("scenario.straggler_s", straggler)
	return digestTable(tbl), nil
}

// jobTimer is an observer that records when each run of a grid begins and
// ends, relative to the grid's start.
type jobTimer struct {
	start time.Time
	mu    sync.Mutex
	jobs  [][2]float64
}

func (jt *jobTimer) BeginRun(obs.RunMeta) obs.RunObserver {
	return &jobRun{jt: jt, begin: time.Since(jt.start).Seconds()}
}

// fanout returns the share of the workers' time spent in jobs, and the
// straggler tail: the time from the first worker running out of jobs to the
// last job ending.
func (jt *jobTimer) fanout(wallS float64, workers int) (util, stragglerS float64) {
	var busy float64
	ends := make([]float64, 0, len(jt.jobs))
	for _, j := range jt.jobs {
		busy += j[1] - j[0]
		ends = append(ends, j[1])
	}
	sort.Float64s(ends)
	if k := len(ends) - workers; k >= 0 && len(ends) > 0 {
		stragglerS = ends[len(ends)-1] - ends[k]
	}
	return busy / (wallS * float64(workers)), stragglerS
}

type jobRun struct {
	jt    *jobTimer
	begin float64
}

func (r *jobRun) ShouldSample(int) bool        { return false }
func (r *jobRun) ObserveEpoch(*obs.EpochEvent) {}
func (r *jobRun) End() {
	end := time.Since(r.jt.start).Seconds()
	r.jt.mu.Lock()
	r.jt.jobs = append(r.jt.jobs, [2]float64{r.begin, end})
	r.jt.mu.Unlock()
}

// leg drives the Workers=1 pass once, traced or not, and returns its CPU
// seconds.
func (t *tracer) leg(traced bool) (float64, error) {
	t.legs++
	runID := fmt.Sprintf("%s-seed%d-leg%d", t.w.name, t.cfg.seed, t.legs)
	sp := newSpans(traced, runID, int(t.epochs)*6+len(t.seq))
	runtime.GC()
	c0 := obs.CPUSeconds()
	var outs []outcome
	var rows [][]string
	var localS, globalS float64
	faults := 0
	var err error
	for _, j := range t.seq {
		var d driven
		if d, err = drive(j, sp, -1); err != nil {
			break
		}
		outs = append(outs, d.out)
		rows = append(rows, d.row)
		localS += d.localS
		globalS += d.globalS
		faults += d.faults
	}
	cpu := obs.CPUSeconds() - c0
	dg := digestOutcomes(outs)
	if t.w.engine {
		dg = digestRows(rows)
	}
	t.verify(runID, dg, err)
	if err != nil || !traced {
		return cpu, err
	}
	t.absorb(sp, localS, globalS, faults)
	if !t.written {
		t.written = true
		path := filepath.Join(t.cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", t.w.name, t.cfg.seed))
		if err := sp.write(path); err != nil {
			return cpu, err
		}
	}
	return cpu, nil
}

// absorb folds one traced leg's spans into the per-layer samples.
func (t *tracer) absorb(sp *spans, localS, globalS float64, faults int) {
	n := float64(sp.count(spanEpoch))
	t.epochNs = append(t.epochNs, sp.durations(spanEpoch)...)
	var decide float64
	for _, name := range sp.names {
		if strings.HasSuffix(name, ".decide") {
			d := sp.durations(name)
			t.decideNs[name] = append(t.decideNs[name], d...)
			for _, v := range d {
				decide += v
			}
		}
	}
	t.s.add("sim.loop_self_ns_per_epoch", sp.selfTotal(spanEpoch)/n)
	t.s.add("manycore.step_ns_per_epoch", sp.total(spanStep)/n)
	t.s.add("manycore.setlevel_ns_per_epoch", sp.total(spanSetLevel)/n)
	t.s.add("fault.tick_ns_per_epoch", sp.total(spanFault)/n)
	t.s.add("rl.decide_share", decide/sp.total(spanEpoch))
	if t.decideNs[spanCore] != nil {
		t.s.add("core.local_s", localS)
		t.s.add("core.global_s", globalS)
	}
	if t.w.instrumented {
		t.s.add("fault.events", float64(faults))
	}
}

// round makes one measurement round.
func (t *tracer) round(r int, rp *replays) error {
	// Traced and untraced legs of the same driven loop, alternating which
	// runs first so drift on the host hits both alike.
	var on, off float64
	var err error
	if r%2 == 0 {
		if off, err = t.leg(false); err == nil {
			on, err = t.leg(true)
		}
	} else {
		if on, err = t.leg(true); err == nil {
			off, err = t.leg(false)
		}
	}
	if err != nil {
		return err
	}
	t.s.add("trace.overhead", on/off)
	if t.w.engine && r > 0 {
		dg, err := t.gridReference()
		t.verify("grid reference", dg, err)
		if err != nil {
			return err
		}
	}
	if err := t.setup(); err != nil {
		return err
	}
	rp.round(t.s, r)
	if t.w.instrumented {
		return t.instrumentLegs(r)
	}
	return nil
}

// setup times the set-up stages of one pass: chip and controller builds
// for every job, and the instruments.
func (t *tracer) setup() error {
	var chipNs, ctrlNs float64
	for _, j := range t.par {
		t0 := time.Now()
		chip, _, err := sim.NewChip(j.opts)
		chipNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		chip.Close()
		t0 = time.Now()
		c, err := newController(j)
		ctrlNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		closeController(c)
	}
	t.s.add("setup.chip_ms", chipNs/1e6)
	t.s.add("setup.controller_ms", ctrlNs/1e6)
	if t.w.instrumented {
		t0 := time.Now()
		newInstruments(t.par[0].opts, instrumentNames...)
		t.s.add("setup.instruments_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return nil
}

// instrumentLegs runs, for each instrument alone, one pass without and one
// with it, in alternating order, and records the CPU-time difference per
// epoch. The tracer's sink counts the bytes it is handed.
func (t *tracer) instrumentLegs(r int) error {
	j := t.par[0]
	run := func(in *instruments) (float64, error) {
		c, err := newController(j)
		if err != nil {
			return 0, err
		}
		defer closeController(c)
		runtime.GC()
		c0 := obs.CPUSeconds()
		res, err := sim.Run(in.attach(j.opts), c)
		cpu := obs.CPUSeconds() - c0
		t.verify("instrument leg", digestOutcomes([]outcome{resultOutcome(res)}), err)
		return cpu, err
	}
	for i, name := range instrumentNames {
		in := newInstruments(j.opts, name)
		var on, off float64
		var err error
		if (r+i)%2 == 0 {
			if off, err = run(nil); err == nil {
				on, err = run(in)
			}
		} else {
			if on, err = run(in); err == nil {
				off, err = run(nil)
			}
		}
		if err != nil {
			return err
		}
		t.s.add("obs."+name+"_ns_per_epoch", (on-off)*1e9/t.epochs)
		if in.sink != nil {
			t.s.add("obs.trace_bytes_per_epoch", float64(in.sink.bytes)/t.epochs)
		}
	}
	return nil
}

// report turns the samples into the per-layer metrics.
func (t *tracer) report() result {
	v := map[string]float64{}
	for name, xs := range t.s {
		v[name] = median(xs)
	}
	v["trace.overhead_frac"] = v["trace.overhead"] - 1
	v["sim.epoch_us_p50"] = quantile(t.epochNs, 0.5) / 1e3
	v["sim.epoch_us_p99"] = quantile(t.epochNs, 0.99) / 1e3
	for name, d := range t.decideNs {
		layer := strings.TrimSuffix(name, ".decide")
		v[layer+".decide_us_p50"] = quantile(d, 0.5) / 1e3
		v[layer+".decide_us_p99"] = quantile(d, 0.99) / 1e3
	}
	comp := v["rng.noise_ns_per_epoch"] + v["power.leakage_ns_per_epoch"] +
		v["thermal.step_ns_per_epoch"] + v["workload.advance_ns_per_epoch"]
	v["manycore.unattributed_frac"] = 1 - comp/v["manycore.step_ns_per_epoch"]
	res := t.res
	for _, m := range layerNames {
		res.metrics = append(res.metrics, metric{m[0], m[1], v[m[0]]})
	}
	return res
}
