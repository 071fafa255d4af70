// Package fault is the deterministic fault-injection layer: it corrupts
// the telemetry controllers read and the actuation commands they issue,
// kills cores outright, and perturbs the chip power cap — the failure
// modes a real power-management stack must survive (stale sensors, biased
// meters, dead PLLs, firmware cap events), none of which the clean
// Gaussian sensor-noise model covers.
//
// Everything is seed-driven and reproducible: an Injector draws from one
// dedicated RNG stream, separate from the workload and sensor-noise
// streams, and is only ever invoked from the harness's sequential epoch
// loop (the telemetry hook after Chip.Step, the actuation hook inside
// Chip.SetLevel, and the per-epoch Tick). Fault realisations are therefore
// a pure function of (run seed, plan) — independent of the Workers count —
// which preserves the repository's bit-identical determinism contract. A
// nil or zero Plan leaves every byte of the fault-free path untouched.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/manycore"
	"repro/internal/rng"
)

// Plan describes the fault environment of one run. Rates and probabilities
// are expressed per simulated second or per core-epoch, so the same plan
// scales across chip sizes and run lengths. The zero value injects nothing.
type Plan struct {
	// SensorStuckProb is the per-core, per-epoch probability that a core's
	// telemetry freezes this epoch: the controller sees a stale repeat of
	// the last emitted reading (the classic stuck-at sensor fault).
	SensorStuckProb float64 `json:"sensor_stuck_prob,omitempty"`
	// MeterBias is a relative error on the chip-level power meter: the
	// observed chip power is scaled by (1 + MeterBias + MeterDriftPerS·t).
	MeterBias float64 `json:"meter_bias,omitempty"`
	// MeterDriftPerS grows the meter bias linearly with simulated time,
	// modelling uncalibrated drift.
	MeterDriftPerS float64 `json:"meter_drift_per_s,omitempty"`
	// BlackoutRatePerS is the mean rate of telemetry blackout windows
	// (sampled per epoch). During a blackout every core's telemetry and the
	// chip meter repeat their last emitted values.
	BlackoutRatePerS float64 `json:"blackout_rate_per_s,omitempty"`
	// BlackoutDurS is the length of each blackout window.
	BlackoutDurS float64 `json:"blackout_dur_s,omitempty"`
	// ActuationDropProb is the per-core, per-epoch probability that a VF
	// level request is silently ignored (the core keeps its current level).
	ActuationDropProb float64 `json:"actuation_drop_prob,omitempty"`
	// ActuationClampProb is the per-core, per-epoch probability that a VF
	// level request is clamped to at most one step from the current level
	// (a slow or partially failed voltage regulator).
	ActuationClampProb float64 `json:"actuation_clamp_prob,omitempty"`
	// DeadCoreFrac is the fraction of cores that fail permanently during
	// the run: each selected core goes dark at a seed-drawn time, retires
	// nothing afterwards, and its budget share must be reclaimed.
	DeadCoreFrac float64 `json:"dead_core_frac,omitempty"`
	// BudgetDropRatePerS is the mean rate of transient cap drops (sampled
	// per epoch); during a drop the chip budget is scaled by
	// (1 − BudgetDropFrac). These model firmware/datacentre cap events and
	// are real: both the controller and the compliance meter see them.
	BudgetDropRatePerS float64 `json:"budget_drop_rate_per_s,omitempty"`
	// BudgetDropFrac is the relative cap reduction during a drop.
	BudgetDropFrac float64 `json:"budget_drop_frac,omitempty"`
	// BudgetDropDurS is the length of each cap drop.
	BudgetDropDurS float64 `json:"budget_drop_dur_s,omitempty"`
	// Seed, when non-zero, pins the fault stream independently of the run
	// seed, so the same fault realisation can be replayed across runs.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate reports the first invalid field.
func (p Plan) Validate() error {
	checkProb := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"SensorStuckProb", p.SensorStuckProb},
		{"ActuationDropProb", p.ActuationDropProb},
		{"ActuationClampProb", p.ActuationClampProb},
		{"DeadCoreFrac", p.DeadCoreFrac},
	} {
		if err := checkProb(c.name, c.v); err != nil {
			return err
		}
	}
	switch {
	case math.IsNaN(p.MeterBias) || p.MeterBias <= -1:
		return fmt.Errorf("fault: MeterBias must be > -1, got %g", p.MeterBias)
	case math.IsNaN(p.MeterDriftPerS):
		return fmt.Errorf("fault: MeterDriftPerS is NaN")
	case math.IsNaN(p.BlackoutRatePerS) || p.BlackoutRatePerS < 0:
		return fmt.Errorf("fault: BlackoutRatePerS must be non-negative, got %g", p.BlackoutRatePerS)
	case math.IsNaN(p.BlackoutDurS) || p.BlackoutDurS < 0:
		return fmt.Errorf("fault: BlackoutDurS must be non-negative, got %g", p.BlackoutDurS)
	case p.BlackoutRatePerS > 0 && p.BlackoutDurS == 0:
		return fmt.Errorf("fault: BlackoutRatePerS set with zero BlackoutDurS")
	case math.IsNaN(p.BudgetDropRatePerS) || p.BudgetDropRatePerS < 0:
		return fmt.Errorf("fault: BudgetDropRatePerS must be non-negative, got %g", p.BudgetDropRatePerS)
	case math.IsNaN(p.BudgetDropFrac) || p.BudgetDropFrac < 0 || p.BudgetDropFrac >= 1:
		return fmt.Errorf("fault: BudgetDropFrac must be in [0,1), got %g", p.BudgetDropFrac)
	case math.IsNaN(p.BudgetDropDurS) || p.BudgetDropDurS < 0:
		return fmt.Errorf("fault: BudgetDropDurS must be non-negative, got %g", p.BudgetDropDurS)
	case p.BudgetDropRatePerS > 0 && (p.BudgetDropFrac == 0 || p.BudgetDropDurS == 0):
		return fmt.Errorf("fault: BudgetDropRatePerS set with zero BudgetDropFrac or BudgetDropDurS")
	}
	return nil
}

// Zero reports whether the plan injects nothing: every fault class is
// switched off, so a run with this plan is byte-identical to one with no
// plan at all.
func (p Plan) Zero() bool {
	return p.SensorStuckProb == 0 && p.MeterBias == 0 && p.MeterDriftPerS == 0 &&
		p.BlackoutRatePerS == 0 && p.ActuationDropProb == 0 && p.ActuationClampProb == 0 &&
		p.DeadCoreFrac == 0 && p.BudgetDropRatePerS == 0
}

// Scaled returns the canonical fault plan at the given intensity in [0, 1]:
// every rate and probability scales linearly, window lengths stay fixed.
// Intensity 0 is the fault-free plan; intensity 1 combines ~5% stuck
// sensors, +3% meter bias with drift, ~0.5 blackouts/s of 40 ms, 5%
// dropped and 10% clamped actuations, 6% dead cores and ~0.2 cap drops/s
// of 20% for 100 ms — harsh but survivable, the regime the F18 experiment
// sweeps.
func Scaled(intensity float64) Plan {
	x := intensity
	if x < 0 {
		x = 0
	}
	return Plan{
		SensorStuckProb:    0.05 * x,
		MeterBias:          0.03 * x,
		MeterDriftPerS:     0.005 * x,
		BlackoutRatePerS:   0.5 * x,
		BlackoutDurS:       0.04,
		ActuationDropProb:  0.05 * x,
		ActuationClampProb: 0.10 * x,
		DeadCoreFrac:       0.06 * x,
		BudgetDropRatePerS: 0.2 * x,
		BudgetDropFrac:     0.2,
		BudgetDropDurS:     0.1,
	}
}

// ParseSpec resolves a -fault-plan flag value: empty means no plan, a bare
// number is an intensity for Scaled, anything else is read as a Plan JSON
// file path.
func ParseSpec(spec string) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if x, err := strconv.ParseFloat(spec, 64); err == nil {
		if math.IsNaN(x) || x < 0 {
			return nil, fmt.Errorf("fault: intensity must be non-negative, got %q", spec)
		}
		p := Scaled(x)
		return &p, nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("fault: opening plan %q: %w", spec, err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("fault: plan %q: %w", spec, err)
	}
	return &p, nil
}

// Load decodes and validates a Plan from JSON.
func Load(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Save encodes the plan as indented JSON.
func (p Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Event kinds reported by Tick for observability.
const (
	KindCoreDead   = "core_dead"
	KindBlackout   = "blackout"
	KindBudgetDrop = "budget_drop"
)

// Event is one discrete injected fault, reported once when it starts.
type Event struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Core is the affected core for KindCoreDead, -1 otherwise.
	Core int
	// UntilS is the simulated time the fault window ends (core deaths are
	// permanent and report +Inf).
	UntilS float64
}

// Counts aggregates how often each fault class fired over a run.
type Counts struct {
	StaleCoreEpochs   int // core-epochs served stale telemetry
	Blackouts         int // blackout windows started
	DroppedActuations int
	ClampedActuations int
	DeadCores         int
	BudgetDrops       int
}

// Injector realises one Plan over one run. It implements the manycore
// telemetry and actuation hooks; the harness additionally calls Tick once
// per epoch (before Chip.Step) and FilterBudget on the scheduled cap.
// All methods must be called from the sequential harness loop — the
// injector is not concurrency-safe, by design: keeping every draw on the
// sequential path is what makes fault realisations Workers-independent.
type Injector struct {
	plan  Plan
	r     *rng.RNG
	cores int

	// last holds the previously emitted telemetry for stale repeats.
	last     []manycore.CoreTelemetry
	lastChip float64
	haveLast bool

	dead     []bool
	deadAtS  []float64 // per-core failure time, +Inf = never fails
	deadLeft int

	blackoutUntilS float64
	budgetUntilS   float64

	counts Counts
}

// faultSeedTag decorrelates the fault stream from the workload/sensor
// streams, which are seeded from the raw run seed.
const faultSeedTag = 0x6fa17b0c0de5eed

// NewInjector builds the injector for a run of the given core count and
// total simulated length. runSeed seeds the fault stream unless the plan
// pins its own seed.
func NewInjector(plan Plan, cores int, totalS float64, runSeed uint64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("fault: invalid core count %d", cores)
	}
	if totalS <= 0 {
		return nil, fmt.Errorf("fault: non-positive run length %g", totalS)
	}
	seed := plan.Seed
	if seed == 0 {
		seed = runSeed ^ faultSeedTag
	}
	inj := &Injector{
		plan:           plan,
		r:              rng.New(seed),
		cores:          cores,
		last:           make([]manycore.CoreTelemetry, cores),
		dead:           make([]bool, cores),
		deadAtS:        make([]float64, cores),
		blackoutUntilS: math.Inf(-1),
		budgetUntilS:   math.Inf(-1),
	}
	for i := range inj.deadAtS {
		inj.deadAtS[i] = math.Inf(1)
	}
	// Pre-draw the structural failures: which cores die, and when. Times
	// are spread over the middle 80% of the run so deaths land inside the
	// window controllers are actually evaluated on.
	if k := int(plan.DeadCoreFrac*float64(cores) + 0.5); k > 0 {
		victims := inj.r.Perm(cores)[:k]
		sort.Ints(victims) // draw times in core order, not permutation order
		for _, c := range victims {
			inj.deadAtS[c] = totalS * (0.1 + 0.8*inj.r.Float64())
		}
		inj.deadLeft = k
	}
	return inj, nil
}

// Counts returns the per-class fault totals so far.
func (inj *Injector) Counts() Counts { return inj.counts }

// Dead reports whether core i has failed.
func (inj *Injector) Dead(i int) bool { return inj.dead[i] }

// Tick advances the injector to the epoch [tStart, tStart+epochS): it
// samples new blackout and budget-drop windows and returns the fault
// events starting this epoch, including cores whose scheduled failure time
// has arrived (the caller must power those cores off via Chip.FailCore).
func (inj *Injector) Tick(tStart, epochS float64) []Event {
	var events []Event
	if inj.deadLeft > 0 {
		for i := range inj.deadAtS {
			if !inj.dead[i] && inj.deadAtS[i] <= tStart {
				inj.dead[i] = true
				inj.deadLeft--
				inj.counts.DeadCores++
				events = append(events, Event{Kind: KindCoreDead, Core: i, UntilS: math.Inf(1)})
			}
		}
	}
	if p := inj.plan.BlackoutRatePerS; p > 0 && tStart >= inj.blackoutUntilS {
		if inj.r.Float64() < p*epochS {
			inj.blackoutUntilS = tStart + inj.plan.BlackoutDurS
			inj.counts.Blackouts++
			events = append(events, Event{Kind: KindBlackout, Core: -1, UntilS: inj.blackoutUntilS})
		}
	}
	if p := inj.plan.BudgetDropRatePerS; p > 0 && tStart >= inj.budgetUntilS {
		if inj.r.Float64() < p*epochS {
			inj.budgetUntilS = tStart + inj.plan.BudgetDropDurS
			inj.counts.BudgetDrops++
			events = append(events, Event{Kind: KindBudgetDrop, Core: -1, UntilS: inj.budgetUntilS})
		}
	}
	return events
}

// FilterBudget returns the cap in force at time t given the scheduled cap:
// scaled down during an active budget-drop transient. Cap transients are
// real events, so the harness applies the filtered value to both the
// controller and the compliance meter.
func (inj *Injector) FilterBudget(t, budgetW float64) float64 {
	if t < inj.budgetUntilS {
		return budgetW * (1 - inj.plan.BudgetDropFrac)
	}
	return budgetW
}

// FilterTelemetry implements manycore.TelemetryFilter: it rewrites the
// observed fields of the epoch telemetry (per-core readings and the chip
// meter) in place. True quantities (TruePowerW, Instructions) are
// preserved — faults corrupt what controllers see, never the physics the
// harness meters.
func (inj *Injector) FilterTelemetry(tel *manycore.Telemetry) {
	epochStart := tel.TimeS - tel.EpochS
	inBlackout := epochStart < inj.blackoutUntilS
	for i := range tel.Cores {
		ct := &tel.Cores[i]
		if ct.Dead {
			// A dead core's zeros are the honest reading; nothing to fault.
			continue
		}
		stale := inBlackout
		if !stale && inj.plan.SensorStuckProb > 0 {
			stale = inj.r.Float64() < inj.plan.SensorStuckProb
		}
		if stale && inj.haveLast {
			instr, changed := ct.Instructions, ct.PhaseChanged
			*ct = inj.last[i]
			ct.Instructions = instr
			ct.PhaseChanged = changed
			inj.counts.StaleCoreEpochs++
		}
	}
	if inBlackout && inj.haveLast {
		tel.ChipPowerW = inj.lastChip
	} else if inj.plan.MeterBias != 0 || inj.plan.MeterDriftPerS != 0 {
		tel.ChipPowerW *= 1 + inj.plan.MeterBias + inj.plan.MeterDriftPerS*tel.TimeS
		if tel.ChipPowerW < 0 {
			tel.ChipPowerW = 0
		}
	}
	for i := range tel.Cores {
		inj.last[i] = tel.Cores[i]
	}
	inj.lastChip = tel.ChipPowerW
	inj.haveLast = true
}

// FilterLevel implements manycore.ActuationFilter: a requested VF level
// may be silently dropped (core keeps its current level) or clamped to one
// step from the current level. Returned levels are always within one of
// the two in-range inputs, so the result needs no further clamping.
func (inj *Injector) FilterLevel(core, requested, current int) int {
	if inj.dead[core] {
		return current
	}
	if p := inj.plan.ActuationDropProb; p > 0 && inj.r.Float64() < p {
		inj.counts.DroppedActuations++
		return current
	}
	if p := inj.plan.ActuationClampProb; p > 0 && requested != current && inj.r.Float64() < p {
		inj.counts.ClampedActuations++
		if requested > current {
			return current + 1
		}
		return current - 1
	}
	return requested
}
