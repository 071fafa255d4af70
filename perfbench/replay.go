package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rl"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/thermal"
	wl "repro/internal/workload"
)

// blockNs is the target length of one timed replay block: long against a
// clock read, short against the round.
const blockNs = 2e6

// replayOp is one component replayed through its public function.
type replayOp struct {
	metric string
	n      int // calls per timed block
	op     func()
}

// replays re-runs each kernel component at the workload's size, and steps
// the workload's chip at Workers=1 and at the run's worker count, so the
// per-layer numbers can be set against the traced epoch.
type replays struct {
	ops          []replayOp
	chip1, chipN *manycore.Chip
	tel1, telN   manycore.Telemetry
	dt           float64
	stepEpochs   int
}

// newReplays builds the replay state from the first job of a pass. The
// inputs (levels, temperatures, per-core power) come from a chip stepped
// for a few epochs at a spread of levels.
func newReplays(w workload, seq []job, cfg config) (*replays, error) {
	o := seq[0].opts
	chip, _, err := sim.NewChip(o)
	if err != nil {
		return nil, err
	}
	defer chip.Close()
	mc := chip.Config()
	n, levels := o.Cores, mc.VF.Levels()
	var tel manycore.Telemetry
	for i := 0; i < n; i++ {
		chip.SetLevel(i, i%levels)
	}
	for e := 0; e < 20; e++ {
		chip.StepInto(o.EpochS, &tel)
	}
	lv, temps, pw := make([]int, n), make([]float64, n), make([]float64, n)
	for i, ct := range tel.Cores {
		lv[i], temps[i], pw[i] = ct.Level, ct.TempK, ct.PowerW
	}

	rp := &replays{dt: o.EpochS}
	r := rng.New(o.Seed)
	if mc.SensorNoise != 0 {
		rp.add("rng.noise_ns_per_epoch", func() {
			for i := 0; i < 3*n; i++ {
				sink += r.NormFloat64()
			}
		})
	}
	lut := power.NewLUT(mc.Power, mc.VF.VoltagesV())
	rp.add("power.leakage_ns_per_epoch", func() {
		for i := 0; i < n; i++ {
			sink += lut.LeakageWAt(lv[i], temps[i])
		}
	})
	if mc.ThermalEnabled {
		th, err := thermal.New(mc.Width, mc.Height, mc.Thermal)
		if err != nil {
			return nil, err
		}
		rp.add("thermal.step_ns_per_epoch", func() { th.Step(pw, o.EpochS) })
	}
	srcs, err := sources(o, r.Split())
	if err != nil {
		return nil, err
	}
	rp.add("workload.advance_ns_per_epoch", func() {
		for _, s := range srcs {
			sink += float64(s.Advance(o.EpochS))
		}
	})

	agent, err := linearAgent(mc, r.Split())
	if err != nil {
		return nil, err
	}
	x := make([]float64, 3)
	agent.Begin(x)
	rp.add("rl.linear_step_ns", func() {
		x[0], x[1], x[2] = r.Float64()-0.5, r.Float64(), r.Float64()
		sink += float64(agent.Step(r.Float64(), x))
	})
	pred, err := ctrl.NewPredictor(mc.VF, mc.Power)
	if err != nil {
		return nil, err
	}
	k := 0
	rp.add("ctrl.powerat_ns", func() {
		sink += pred.PowerAt(tel.Cores[k%n], k%levels)
		k++
	})
	if w.engine {
		spec, err := gridSpec(seq)
		if err != nil {
			return nil, err
		}
		rp.add("scenario.spec_decode_us", func() {
			s, err := scenario.LoadBytes(spec)
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				panic(err) // the reference pass ran this spec
			}
		})
	}

	// Two chips for the shard speed-up, stepped at a fixed level spread.
	mk := func(workers int) (*manycore.Chip, error) {
		oo := o
		oo.Workers = workers
		c, _, err := sim.NewChip(oo)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			c.SetLevel(i, i%levels)
		}
		return c, nil
	}
	if rp.chip1, err = mk(1); err != nil {
		return nil, err
	}
	if rp.chipN, err = mk(cfg.workers); err != nil {
		rp.chip1.Close()
		return nil, err
	}
	// Enough epochs per leg for ~20 ms of stepping.
	t0 := time.Now()
	rp.chip1.StepInto(o.EpochS, &rp.tel1)
	rp.stepEpochs = max(1, int(20e6/float64(time.Since(t0).Nanoseconds()+1)))
	return rp, nil
}

// add calibrates an op's block size and registers it.
func (rp *replays) add(metric string, op func()) {
	op()
	t0 := time.Now()
	op()
	n := int(blockNs / float64(time.Since(t0).Nanoseconds()+1))
	rp.ops = append(rp.ops, replayOp{metric, min(max(n, 1), 1<<20), op})
}

// round times one block set of every op, plus one stepping leg on each
// chip, alternating which chip goes first.
func (rp *replays) round(s samples, r int) {
	for _, op := range rp.ops {
		v := nsPerOp(3, op.n, op.op)
		if op.metric == "scenario.spec_decode_us" {
			v /= 1e3
		}
		s.add(op.metric, v)
	}
	step := func(c *manycore.Chip, tel *manycore.Telemetry) float64 {
		t0 := time.Now()
		for e := 0; e < rp.stepEpochs; e++ {
			c.StepInto(rp.dt, tel)
		}
		return float64(time.Since(t0).Nanoseconds())
	}
	var one, many float64
	if r%2 == 0 {
		one, many = step(rp.chip1, &rp.tel1), step(rp.chipN, &rp.telN)
	} else {
		many, one = step(rp.chipN, &rp.telN), step(rp.chip1, &rp.tel1)
	}
	s.add("manycore.shard_speedup", one/many)
}

func (rp *replays) close() {
	rp.chip1.Close()
	rp.chipN.Close()
}

// sources builds per-core workload sources the way sim.NewChip does for a
// preset or the "mix" round-robin.
func sources(o sim.Options, r *rng.RNG) ([]wl.Source, error) {
	names := []string{o.Workload}
	if o.Workload == "mix" {
		names = wl.PresetNames()
	}
	out := make([]wl.Source, o.Cores)
	for i := range out {
		spec, err := wl.Preset(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		scale := 1 + o.WorkloadScaleJitter*(2*r.Float64()-1)
		if out[i], err = wl.NewScaledProcess(spec, r.Split(), scale); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// linearAgent builds one per-core agent of the tile-coded linear OD-RL(λ=0.7)
// controller, with the coder and hyper-parameters core.New gives it.
func linearAgent(mc manycore.Config, r *rng.RNG) (*rl.LinearAgent, error) {
	coder, err := rl.NewTileCoder([]float64{-0.5, 0, 0}, []float64{0.5, 1, 1}, 8, 4)
	if err != nil {
		return nil, err
	}
	c := core.DefaultConfig()
	return rl.NewLinearAgent(coder, rl.LinearConfig{
		Actions:      mc.VF.Levels(),
		Alpha:        c.Alpha,
		Gamma:        c.Gamma,
		Lambda:       0.7,
		EpsilonStart: c.EpsilonStart,
		EpsilonEnd:   c.EpsilonEnd,
		EpsilonDecay: c.EpsilonDecay,
	}, r)
}
