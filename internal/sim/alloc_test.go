package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
)

// mallocsDuring returns the number of heap allocations performed while f
// runs. A GC beforehand settles any pending finalizer work so stale
// garbage from earlier tests cannot bleed into the count; the second GC
// empties every sync.Pool (a pool's contents survive one cycle), so pooled
// buffers such as encoding/json's are re-allocated the same way in every
// measured run instead of only in runs that happened to follow a GC.
func mallocsDuring(f func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocRun executes one sequential run of the controller build makes,
// with a JSONL tracer sampling every epoch, monitoring and learning
// introspection attached — the full observability stack a production run
// carries — and returns how many heap allocations it made.
//
// The monitor evaluates DeterministicDefaultRules plus extra: every rule
// is a pure function of the simulated epoch stream, so whether an alert
// fires is the same in every leg of a measurement. The wall-clock
// decide-latency-p99 rule of DefaultRules is left out because on a loaded
// host it can fire in the long leg only, and a first alert costs dozens of
// one-off allocations that would be charged to the epoch loop.
func allocRun(t *testing.T, measureS float64, build func(Env) (ctrl.Controller, error), extra ...monitor.Rule) (uint64, *monitor.Monitor) {
	t.Helper()
	opts := DefaultOptions()
	opts.Cores = 16
	opts.Workers = 1
	opts.WarmupS = 0.05
	opts.MeasureS = measureS
	opts.TracePoints = 0
	opts.Observer = obs.NewTracer(discardSink{}, obs.TracerOptions{Every: 1})
	rules := append(monitor.DeterministicDefaultRules(opts.BudgetW, opts.EpochS), extra...)
	mon := monitor.New(monitor.Options{Rules: rules})
	opts.Monitor = mon
	opts.Learn = learn.New(learn.Options{})

	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(env)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	n := mallocsDuring(func() {
		_, runErr = Run(opts, c)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return n, mon
}

// discardSink accepts and drops every trace line.
type discardSink struct{}

func (discardSink) Emit([]byte) error { return nil }
func (discardSink) Close() error      { return nil }

// TestRunSteadyStateZeroAlloc is the allocation-regression gate for the
// epoch loop: two runs that differ only in length are measured, so all
// setup cost (chip construction, LUTs, observer registration, result
// buffers) cancels in the difference and the quotient is the steady-state
// per-epoch allocation rate. The epoch kernel, the decide/learn path, the
// tracer's epoch and learn records, and the monitor + learn observers
// together must allocate nothing per epoch. The threshold of 0.05
// allocs/epoch (50 over the 1000 extra epochs) absorbs runtime
// background allocations, not per-epoch work.
//
// testing.AllocsPerRun is deliberately not used: it averages whole
// invocations of Run, so chip construction would swamp the per-epoch
// signal it is supposed to detect. Differencing two run lengths is the
// same measurement with the setup term subtracted out.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation measurement needs the long run")
	}

	const shortS, longS = 0.2, 1.2
	opts := DefaultOptions()
	opts.EpochS = 1e-3 // pin the epoch length the arithmetic below assumes
	extraEpochs := int((longS - shortS) / opts.EpochS)

	cases := []struct {
		name  string
		build func(Env) (ctrl.Controller, error)
	}{
		{"od-rl", func(env Env) (ctrl.Controller, error) { return NewController("od-rl", env) }},
		// The tile-coded linear SARSA(λ) controller of the F9 ablation.
		{"od-rl-fa-lambda0.7", func(env Env) (ctrl.Controller, error) {
			return core.New(env.Cores, env.VF, env.Power, core.Config{FunctionApprox: true, TraceLambda: 0.7})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm once so lazily-initialised package state (controller
			// registry, observer metadata) is counted by neither measured run.
			allocRun(t, shortS, tc.build)

			short, _ := allocRun(t, shortS, tc.build)
			long, _ := allocRun(t, longS, tc.build)

			var perEpoch float64
			if long > short {
				perEpoch = float64(long-short) / float64(extraEpochs)
			}
			t.Logf("allocs: short=%d long=%d over %d extra epochs => %.4f allocs/epoch",
				short, long, extraEpochs, perEpoch)
			if perEpoch > 0.05 {
				t.Fatalf("steady-state epoch loop allocates %.4f allocs/epoch (short=%d long=%d); want ~0",
					perEpoch, short, long)
			}
		})
	}
}

// alertFiringMaxAllocs bounds what one fired alert allocates once the
// process is warm. On go1.24 it is 5: the event handed to the observer
// chain, the retained copy in RunHealth.Alerts, and the tracer's JSON
// alert record (boxing, encoding, line copy).
const alertFiringMaxAllocs = 8

// TestAlertFiringAllocs keeps the alert path covered now that the
// zero-alloc gate runs with rules that a healthy run never trips. Runs of
// equal length differ only by a rule that holds on every epoch (the budget
// is positive), so it fires exactly once; the difference in heap
// allocations is the cost of one fired alert, traced and retained. Each
// leg takes the minimum of three runs, since runtime background work can
// only add allocations.
func TestAlertFiringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const measureS = 0.2
	build := func(env Env) (ctrl.Controller, error) { return NewController("od-rl", env) }
	always := monitor.Rule{Name: "always", Metric: monitor.MetricBudgetW, Op: monitor.OpGT, Threshold: 0, ForEpochs: 1}

	// Warm once with the rule so one-off costs (the JSON encoder's type
	// cache for the alert record) are paid before any measured run.
	allocRun(t, measureS, build, always)

	leg := func(extra ...monitor.Rule) uint64 {
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			n, mon := allocRun(t, measureS, build, extra...)
			if got := mon.AlertsFired(); got != len(extra) {
				t.Fatalf("run with %d always-true rules fired %d alerts", len(extra), got)
			}
			best = min(best, n)
		}
		return best
	}
	quiet, fired := leg(), leg(always)
	cost := int64(fired) - int64(quiet)
	t.Logf("allocs: quiet=%d fired=%d => one alert costs %d", quiet, fired, cost)
	if cost < 1 || cost > alertFiringMaxAllocs {
		t.Fatalf("one fired alert cost %d allocations, want 1..%d", cost, alertFiringMaxAllocs)
	}
}
