package experiments

import (
	"bytes"
	"testing"

	"repro/internal/manycore"
	"repro/internal/obs"
)

// TestBenchStepCaseMeasures runs one tiny paired measurement and checks
// both kernels were timed and the ratio computed. The epoch count is far
// too small for the numbers to mean anything — this pins the harness, not
// the throughput (the gate lives in `odrl-bench -bench-step`).
func TestBenchStepCaseMeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	c, err := benchStepCase("raw-steady-16", 16, true, false, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.EpochsPerSec <= 0 || c.ReferenceEpochsPerSec <= 0 || c.Speedup <= 0 {
		t.Fatalf("unmeasured case %+v", c)
	}
	if c.Cores != 16 || !c.Raw || c.Churn {
		t.Fatalf("case shape lost: %+v", c)
	}
}

// TestBenchStepChurnPaired drives both kernels through the identical
// churn schedule on identically-built chips and requires bit-identical
// telemetry at the end — the paired-work property the throughput
// comparison depends on.
func TestBenchStepChurnPaired(t *testing.T) {
	run := func(reference bool) manycore.Telemetry {
		chip, err := benchStepChip(16, true)
		if err != nil {
			t.Fatal(err)
		}
		defer chip.Close()
		levels := chip.Config().VF.Levels()
		var tel manycore.Telemetry
		for epoch := 0; epoch < 64; epoch++ {
			if reference {
				chip.ReferenceStepInto(1e-3, &tel)
			} else {
				chip.StepInto(1e-3, &tel)
			}
			for c := epoch % 8; c < 16; c += 8 {
				chip.SetLevel(c, (chip.Level(c)+1)%levels)
			}
		}
		return tel
	}
	soa, ref := run(false), run(true)
	if soa.TruePowerW != ref.TruePowerW || soa.ChipPowerW != ref.ChipPowerW {
		t.Fatalf("kernels diverged under churn: soa %+v vs ref %+v",
			soa.TruePowerW, ref.TruePowerW)
	}
	for i := range soa.Cores {
		if soa.Cores[i] != ref.Cores[i] {
			t.Fatalf("core %d telemetry diverged:\nsoa %+v\nref %+v",
				i, soa.Cores[i], ref.Cores[i])
		}
	}
}

// TestBenchStepReportJSON checks the report serialises with its gate
// verdict.
func TestBenchStepReportJSON(t *testing.T) {
	rep := BenchStepReport{
		Host: obs.HostInfo(),
		Cases: []BenchStepCase{{
			Name: "raw-steady-256", Cores: 256, Raw: true,
			EpochsPerSec: 10, ReferenceEpochsPerSec: 2, Speedup: 5,
		}},
		Gate: BenchStepGate{
			Case: "raw-steady-256", MinSpeedup: BenchStepMinSpeedup,
			Speedup: 5, Pass: true,
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"epochs_per_sec"`, `"min_speedup"`, `"pass": true`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("report JSON missing %s:\n%s", want, buf.String())
		}
	}
}
