package main

import (
	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Span names of the driven loop. A decide span is named after the layer
// that decides: core.decide for OD-RL, baselines.<name>.decide otherwise.
const (
	spanRun      = "sim.run"
	spanEpoch    = "sim.epoch"
	spanFault    = "fault.tick"
	spanStep     = "manycore.step"
	spanSetLevel = "manycore.setlevel"
	spanCore     = "core.decide"
)

// decideSpan names the decide span of a controller.
func decideSpan(controller string) string {
	switch controller {
	case "od-rl", "od-rl-linear":
		return spanCore
	}
	return "baselines." + controller + ".decide"
}

// driven is what one driven job reports.
type driven struct {
	out     outcome
	row     []string // the job as an engine table row
	faults  int      // fault events the injector fired
	localS  float64  // OD-RL local-phase time over the measurement window
	globalS float64  // OD-RL global-phase time over the measurement window
}

// budgetAt is the budget in force at simulated time t under o's schedule.
func budgetAt(o sim.Options, t float64) float64 {
	b := o.BudgetW
	for _, s := range o.BudgetSchedule {
		if t < s.AtS {
			break
		}
		b = s.BudgetW
	}
	return b
}

// drive runs one job through the public epoch API — sim.NewChip, then per
// epoch Chip.StepInto, Controller.Decide and Chip.SetLevel, with the fault
// hooks sim.Run installs — recording a span around each call into a layer.
// It follows sim.Run's loop step for step, so its outcome must equal
// sim.Run's for the same options; the digest check holds it to that.
func drive(j job, sp *spans, parent int32) (driven, error) {
	o := j.opts
	chip, _, err := sim.NewChip(o)
	if err != nil {
		return driven{}, err
	}
	defer chip.Close()
	c, err := newController(j)
	if err != nil {
		return driven{}, err
	}
	defer closeController(c)

	warmup, measure := o.Epochs()
	total := warmup + measure
	var d driven
	var inj *fault.Injector
	if p := o.FaultPlan; p != nil && !p.Zero() {
		inj, err = fault.NewInjector(*p, o.Cores, float64(total)*o.EpochS, o.Seed)
		if err != nil {
			return driven{}, err
		}
		chip.SetTelemetryFilter(inj)
		chip.SetActuationFilter(inj)
	}

	nRun, nEpoch, nFault := sp.name(spanRun), sp.name(spanEpoch), sp.name(spanFault)
	nStep, nDecide, nSet := sp.name(spanStep), sp.name(decideSpan(j.controller)), sp.name(spanSetLevel)
	pp, _ := c.(ctrl.PhaseProfiler)

	var (
		meter      power.Meter
		instrStart float64
		tel        manycore.Telemetry
	)
	out := make([]int, o.Cores)
	run := sp.begin(nRun, parent)
	for e := 0; e < total; e++ {
		if e == warmup {
			instrStart = chip.Instructions()
			if pp != nil {
				pp.ResetPhaseTimes()
			}
		}
		ep := sp.begin(nEpoch, run)
		tStart := chip.TimeS()
		budget := budgetAt(o, tStart)
		if inj != nil {
			s := sp.begin(nFault, ep)
			for _, fe := range inj.Tick(tStart, o.EpochS) {
				d.faults++
				if fe.Kind == fault.KindCoreDead {
					chip.FailCore(fe.Core)
				}
			}
			budget = inj.FilterBudget(tStart, budget)
			sp.end(s)
		}
		s := sp.begin(nStep, ep)
		chip.StepInto(o.EpochS, &tel)
		sp.end(s)
		if e >= warmup {
			meter.Add(tel.TruePowerW, budget, o.EpochS)
		}
		s = sp.begin(nDecide, ep)
		c.Decide(&tel, budget, out)
		sp.end(s)
		s = sp.begin(nSet, ep)
		for i, l := range out {
			chip.SetLevel(i, l)
		}
		sp.end(s)
		sp.end(ep)
	}
	sp.end(run)

	if pp != nil {
		for _, pt := range pp.PhaseTimes() {
			switch pt.Name {
			case obs.PhaseLocal:
				d.localS = pt.Total.Seconds()
			case obs.PhaseGlobal:
				d.globalS = pt.Total.Seconds()
			}
		}
	}
	levels := make([]int, o.Cores)
	for i := range levels {
		levels[i] = chip.Level(i)
	}
	instr := chip.Instructions() - instrStart
	d.out = outcome{instr, meter.EnergyJ(), meter.OverBudgetJ(), meter.OverBudgetTimeS(), meter.PeakW(), levels}
	d.row = gridRow(j, &meter, instr)
	return d, nil
}
