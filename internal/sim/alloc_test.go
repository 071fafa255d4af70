package sim

import (
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
// garbage from earlier tests cannot bleed into the count.
func mallocsDuring(f func()) uint64 {
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
func allocRun(t *testing.T, measureS float64, build func(Env) (ctrl.Controller, error)) uint64 {
	t.Helper()
	opts := DefaultOptions()
	opts.Cores = 16
	opts.Workers = 1
	opts.WarmupS = 0.05
	opts.MeasureS = measureS
	opts.TracePoints = 0
	opts.Observer = obs.NewTracer(discardSink{}, obs.TracerOptions{Every: 1})
	opts.Monitor = monitor.New(monitor.Options{})
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
	return n
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
// together must allocate nothing per epoch;
// the threshold of 0.05 allocs/epoch leaves room only for amortized slice
// growth inside the observers' time-series stores.
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

			short := allocRun(t, shortS, tc.build)
			long := allocRun(t, longS, tc.build)

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
