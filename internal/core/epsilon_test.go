package core

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rl"
	"repro/internal/rng"
)

// TestEpsilonTableMatchesInline is the oracle for the shared ε table: a
// 16-core controller under fault.Scaled(0.5) telemetry — stale sensors,
// budget drops and blackouts long enough to trip the watchdog, so held
// agents fall out of lockstep for the rest of the run — must make
// bit-identical decisions and report bit-identical learn-sample ε with its
// agents on the warmed table and with them computing every ε inline.
func TestEpsilonTableMatchesInline(t *testing.T) {
	const (
		n      = 16
		epochs = 4000
		epochS = 1e-3
	)
	for _, fa := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.WatchdogEpochs = 25 // the value the harness arms under a fault plan
		cfg.FunctionApprox = fa
		if fa {
			cfg.TraceLambda = 0.7
		}
		table := newController(t, n, cfg)
		inline := newController(t, n, cfg)
		// Detach inline's agents from the table the controller warms: a
		// table nobody warms is empty, so every read computes inline.
		cold := rl.NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
		for _, a := range inline.agents {
			if !a.AttachEpsilonCache(cold) {
				t.Fatal("cold table refused")
			}
		}
		for _, a := range inline.linAgents {
			if !a.AttachEpsilonCache(cold) {
				t.Fatal("cold table refused")
			}
		}
		tableLearn, inlineLearn := &learnCapture{}, &learnCapture{}
		table.SetLearnSink(tableLearn)
		inline.SetLearnSink(inlineLearn)

		// Seed 3 draws three 40 ms blackouts in the 4 s run.
		inj, err := fault.NewInjector(fault.Scaled(0.5), n, epochs*epochS, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(123)
		budget := 1.2*float64(n) + power.Default().UncoreW
		outT, outI := make([]int, n), make([]int, n)
		held := 0
		for e := 0; e < epochs; e++ {
			tStart := float64(e) * epochS
			inj.Tick(tStart, epochS)
			tel := synthTel(n, e, r)
			tel.TimeS = tStart + epochS
			for i := range tel.Cores {
				if inj.Dead(i) {
					tel.Cores[i] = manycore.CoreTelemetry{Dead: true}
				}
			}
			inj.FilterTelemetry(tel)
			b := inj.FilterBudget(tStart, budget)
			telCopy := *tel
			telCopy.Cores = append([]manycore.CoreTelemetry(nil), tel.Cores...)

			table.Decide(tel, b, outT)
			inline.Decide(&telCopy, b, outI)
			for i := range outT {
				if outT[i] != outI[i] {
					t.Fatalf("fa=%v epoch %d core %d: table chose %d, inline %d", fa, e, i, outT[i], outI[i])
				}
				if table.wdStale[i] >= cfg.WatchdogEpochs {
					held++
				}
			}
		}
		if held == 0 {
			t.Fatalf("fa=%v: no watchdog hold in %d epochs; the lagging-agent path went untested", fa, epochs)
		}
		for e := range tableLearn.batches {
			for i, s := range tableLearn.batches[e] {
				if w := inlineLearn.batches[e][i].Epsilon; math.Float64bits(s.Epsilon) != math.Float64bits(w) {
					t.Fatalf("fa=%v emit %d core %d: learn epsilon %v from the table, %v inline", fa, e, i, s.Epsilon, w)
				}
			}
		}
		t.Logf("fa=%v: %d held core-epochs, %d learn emits", fa, held, len(tableLearn.batches))
	}
}
