package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/obs"
)

// Raw rule metrics, read straight off each epoch event. They fill the
// first slots of the per-epoch frame, in rawMetrics order.
const (
	MetricPowerW     = "power_w"
	MetricBudgetW    = "budget_w"
	MetricIPS        = "ips"
	MetricOvershootW = "overshoot_w"
	MetricDecideNs   = "decide_ns"
	MetricFaults     = "faults"
	MetricMaxTempK   = "max_temp_k"
)

// rawMetrics is the raw metric set in frame order (an array so
// len(rawMetrics) is a compile-time constant for frame sizing).
var rawMetrics = [...]string{
	MetricPowerW, MetricBudgetW, MetricIPS, MetricOvershootW,
	MetricDecideNs, MetricFaults, MetricMaxTempK,
}

// Derived rule metrics, available to rules on top of the raw ones: the
// overshoot as a fraction of the in-force budget (raw and EWMA-smoothed —
// an oscillating controller alternates over/under every epoch, so only the
// smoothed form can "hold" for consecutive epochs), the smoothed chip
// throughput relative to its running peak (collapse detection that
// survives workload phase noise), and the streaming p99 of decide latency.
const (
	MetricOvershootFrac = "overshoot_frac"
	MetricOvershootEMA  = "overshoot_frac_ema"
	MetricIPSVsPeak     = "ips_vs_peak"
	MetricDecideP99Ns   = "decide_p99_ns"
)

// learn.* rule metrics mirror the learning-introspection layer's headline
// metrics (see obs.EpochEvent's Learn* fields). They are zero unless the
// run has the learn layer attached, so learn rules are strictly opt-in:
// DefaultRules never references them.
const (
	MetricLearnTDEMA         = "learn.td_ema"
	MetricLearnChurn         = "learn.churn"
	MetricLearnConvergedFrac = "learn.converged_frac"
	MetricLearnEpsilon       = "learn.epsilon"
)

// ruleMetricIndex maps every rule-addressable metric to its slot in the
// per-epoch frame.
var ruleMetricIndex = func() map[string]int {
	m := make(map[string]int, nFrameMetrics)
	for i, name := range rawMetrics {
		m[name] = i
	}
	m[MetricOvershootFrac] = len(rawMetrics)
	m[MetricOvershootEMA] = len(rawMetrics) + 1
	m[MetricIPSVsPeak] = len(rawMetrics) + 2
	m[MetricDecideP99Ns] = len(rawMetrics) + 3
	m[MetricLearnTDEMA] = len(rawMetrics) + 4
	m[MetricLearnChurn] = len(rawMetrics) + 5
	m[MetricLearnConvergedFrac] = len(rawMetrics) + 6
	m[MetricLearnEpsilon] = len(rawMetrics) + 7
	return m
}()

// nFrameMetrics is the per-epoch frame width: raw metrics plus the derived
// and learn.* ones.
const nFrameMetrics = len(rawMetrics) + 8

// Comparison operators a Rule may use. OpNonfinite ignores Threshold and
// holds when the metric is NaN or ±Inf — the telemetry-poisoning
// invariant.
const (
	OpGT        = ">"
	OpGE        = ">="
	OpLT        = "<"
	OpLE        = "<="
	OpNonfinite = "nonfinite"
)

// Rule is one declarative run-health invariant: fire an alert when Metric
// Op Threshold holds for ForEpochs consecutive epochs. After firing, the
// rule re-arms only once its condition breaks, so a sustained violation
// yields one alert per episode, not one per epoch.
type Rule struct {
	// Name identifies the rule in alerts and the summary table.
	Name string `json:"name"`
	// Metric is a raw metric (power_w, budget_w, ips, overshoot_w,
	// decide_ns, faults, max_temp_k) or a derived one (overshoot_frac,
	// ips_vs_peak, decide_p99_ns).
	Metric string `json:"metric"`
	// Op is one of > >= < <= nonfinite.
	Op string `json:"op"`
	// Threshold is the comparison bound (ignored by nonfinite).
	Threshold float64 `json:"threshold,omitempty"`
	// ForEpochs is how many consecutive epochs the condition must hold
	// before the alert fires; 0 and 1 both mean "fire immediately".
	ForEpochs int `json:"for_epochs,omitempty"`
}

// Validate reports the first problem with the rule.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("monitor: rule with empty name")
	}
	if _, ok := ruleMetricIndex[r.Metric]; !ok {
		return fmt.Errorf("monitor: rule %q: unknown metric %q", r.Name, r.Metric)
	}
	switch r.Op {
	case OpGT, OpGE, OpLT, OpLE:
		if math.IsNaN(r.Threshold) {
			return fmt.Errorf("monitor: rule %q: NaN threshold", r.Name)
		}
	case OpNonfinite:
	default:
		return fmt.Errorf("monitor: rule %q: unknown op %q", r.Name, r.Op)
	}
	if r.ForEpochs < 0 {
		return fmt.Errorf("monitor: rule %q: negative for_epochs %d", r.Name, r.ForEpochs)
	}
	return nil
}

// LoadRules decodes a JSON array of rules, strictly: unknown fields are
// errors (a typoed "treshold" must not silently disable an invariant), and
// every rule is validated.
func LoadRules(r io.Reader) ([]Rule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rules []Rule
	if err := dec.Decode(&rules); err != nil {
		return nil, fmt.Errorf("monitor: decoding rules: %w", err)
	}
	// A second JSON value after the array is malformed input, not padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("monitor: trailing data after rules array")
	}
	for _, rule := range rules {
		if err := rule.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// DefaultRules derives the paper-claim invariant set for a run with the
// given budget and epoch length:
//
//   - sustained-overshoot: smoothed chip overshoot above 2% of the budget
//     for 20 consecutive epochs. Claim C1 is that OD-RL all but eliminates
//     overshoot; transient spikes on workload phase changes are expected,
//     a sustained violation is a controller failure. The EWMA form also
//     catches oscillating controllers that alternate over/under budget
//     every epoch and would never trip a raw consecutive-epoch test.
//   - decide-latency-p99: streaming p99 of the per-epoch decision latency
//     exceeds the epoch's wall-clock budget (claim C4's real-time
//     feasibility bound) for 50 epochs.
//   - bips-collapse: smoothed chip throughput falls below half its running
//     peak for 20 epochs — the graceful-degradation invariant after core
//     death or telemetry blackout (F18).
//   - nan-telemetry: non-finite chip power or throughput, immediately.
func DefaultRules(budgetW, epochS float64) []Rule {
	decideBudgetNs := epochS * 1e9
	if !(decideBudgetNs > 0) {
		decideBudgetNs = 1e6
	}
	_ = budgetW // the overshoot invariant is relative, so the budget only documents intent
	return []Rule{
		{Name: "sustained-overshoot", Metric: MetricOvershootEMA, Op: OpGT, Threshold: 0.02, ForEpochs: 20},
		{Name: "decide-latency-p99", Metric: MetricDecideP99Ns, Op: OpGT, Threshold: decideBudgetNs, ForEpochs: 50},
		{Name: "bips-collapse", Metric: MetricIPSVsPeak, Op: OpLT, Threshold: 0.5, ForEpochs: 20},
		{Name: "nan-telemetry", Metric: MetricPowerW, Op: OpNonfinite, ForEpochs: 1},
		{Name: "nan-throughput", Metric: MetricIPS, Op: OpNonfinite, ForEpochs: 1},
	}
}

// wallClockMetrics are the rule metrics measured in host wall-clock time.
// Rules over them are inherently nondeterministic (a loaded machine can
// trip them); DeterministicDefaultRules excludes them for consumers that
// fold alert counts into reproducible tables.
var wallClockMetrics = map[string]bool{
	MetricDecideNs:    true,
	MetricDecideP99Ns: true,
}

// DeterministicDefaultRules is DefaultRules minus the wall-clock-latency
// invariants: every remaining rule is a pure function of the simulated
// epoch stream, so fired-alert counts are reproducible run to run.
func DeterministicDefaultRules(budgetW, epochS float64) []Rule {
	all := DefaultRules(budgetW, epochS)
	rules := all[:0]
	for _, r := range all {
		if !wallClockMetrics[r.Metric] {
			rules = append(rules, r)
		}
	}
	return rules
}

// engine evaluates a rule set against per-epoch metric frames.
type engine struct {
	rules  []Rule
	metric []int // compiled Metric -> frame index
	need   []int // consecutive epochs required (normalised ForEpochs)
	run    []int // consecutive epochs the condition has held
	fired  []int // alerts fired per rule
}

// newEngine compiles a validated rule set.
func newEngine(rules []Rule) (*engine, error) {
	e := &engine{
		rules:  rules,
		metric: make([]int, len(rules)),
		need:   make([]int, len(rules)),
		run:    make([]int, len(rules)),
		fired:  make([]int, len(rules)),
	}
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		e.metric[i] = ruleMetricIndex[r.Metric]
		e.need[i] = r.ForEpochs
		if e.need[i] < 1 {
			e.need[i] = 1
		}
	}
	return e, nil
}

// eval checks every rule against the epoch's frame, invoking emit for each
// alert that fires. Allocation-free unless an alert fires.
func (e *engine) eval(frame *[nFrameMetrics]float64, epoch int, timeS float64, emit func(*obs.AlertEvent)) {
	for i := range e.rules {
		v := frame[e.metric[i]]
		var hold bool
		switch e.rules[i].Op {
		case OpGT:
			hold = v > e.rules[i].Threshold
		case OpGE:
			hold = v >= e.rules[i].Threshold
		case OpLT:
			hold = v < e.rules[i].Threshold
		case OpLE:
			hold = v <= e.rules[i].Threshold
		case OpNonfinite:
			hold = math.IsNaN(v) || math.IsInf(v, 0)
		}
		if !hold {
			e.run[i] = 0
			continue
		}
		e.run[i]++
		if e.run[i] == e.need[i] { // fires exactly once per episode
			e.fired[i]++
			ev := obs.AlertEvent{
				Epoch:     epoch,
				TimeS:     timeS,
				Rule:      e.rules[i].Name,
				Metric:    e.rules[i].Metric,
				Op:        e.rules[i].Op,
				Threshold: e.rules[i].Threshold,
				Value:     v,
				ForEpochs: e.need[i],
			}
			emit(&ev)
		}
	}
}
