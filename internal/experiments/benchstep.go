package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/manycore"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchStepCase is one epoch-kernel throughput measurement: the same
// epoch sequence executed by the struct-of-arrays kernel and by the
// retained pre-optimization reference kernel, on identically-built chips.
type BenchStepCase struct {
	// Name identifies the case; Cores the chip size.
	Name  string `json:"name"`
	Cores int    `json:"cores"`
	// Raw strips sensor noise and the thermal loop, isolating the kernel
	// from the irreducible per-core RNG draws and the Euler integrator.
	// Churn retargets one core in eight per epoch the way an exploring
	// controller would; the steady variant holds levels fixed.
	Raw   bool `json:"raw"`
	Churn bool `json:"churn"`
	// Epochs is the timed epoch count per rep (best of 3 reps is kept).
	Epochs int `json:"epochs"`
	// EpochsPerSec is the struct-of-arrays kernel's throughput;
	// ReferenceEpochsPerSec is the pre-optimization kernel's on the same
	// host in the same process. Speedup is their ratio.
	EpochsPerSec          float64 `json:"epochs_per_sec"`
	ReferenceEpochsPerSec float64 `json:"reference_epochs_per_sec"`
	Speedup               float64 `json:"speedup"`
}

// BenchStepGate is the acceptance threshold the report carries with it:
// the named case's measured speedup against the floor it must clear.
type BenchStepGate struct {
	Case       string  `json:"case"`
	MinSpeedup float64 `json:"min_speedup"`
	Speedup    float64 `json:"speedup"`
	Pass       bool    `json:"pass"`
}

// BenchStepReport is the machine-readable output of
// `odrl-bench -bench-step` (written as BENCH_step.json): single-thread
// epoch-kernel throughput, struct-of-arrays vs the reference kernel. The
// two kernels are bit-identical in output (see internal/manycore's oracle
// tests), so every ratio here is pure implementation speed.
type BenchStepReport struct {
	obs.Host
	Cases []BenchStepCase `json:"cases"`
	Gate  BenchStepGate   `json:"gate"`
}

// benchStepChip builds the chip shape the throughput cases measure: a
// preset-mix workload (one preset per core, round-robin), sequential
// stepping, full physics unless raw. Mirrors the BenchmarkStepKernel*
// harness in bench_test.go.
func benchStepChip(cores int, raw bool) (*manycore.Chip, error) {
	w, h, err := sim.GridFor(cores)
	if err != nil {
		return nil, err
	}
	cfg := manycore.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Workers = 1
	if raw {
		cfg.SensorNoise = 0
		cfg.ThermalEnabled = false
	}
	sources := make([]workload.Source, cores)
	base := rng.New(3)
	names := workload.PresetNames()
	for i := range sources {
		p, err := workload.NewProcess(workload.MustPreset(names[i%len(names)]), base.Split())
		if err != nil {
			return nil, err
		}
		sources[i] = p
	}
	return manycore.New(cfg, sources, rng.New(4))
}

// benchStepKernelRate times one kernel over warmup + reps×epochs and
// returns the best rep's epochs/sec. Both kernels run the identical epoch
// and churn sequence (churn is a function of the global epoch index), so
// the comparison is paired work. The best-of-reps minimum wall time is
// kept because scheduler preemption only ever adds time.
func benchStepKernelRate(cores int, raw, churn, reference bool, epochs, reps int) (float64, error) {
	chip, err := benchStepChip(cores, raw)
	if err != nil {
		return 0, err
	}
	defer chip.Close()
	levels := chip.Config().VF.Levels()
	var tel manycore.Telemetry
	epoch := 0
	runEpochs := func(n int) float64 {
		start := time.Now() //odrl:allow wallclock throughput benchmark measures host wall-clock by design
		for i := 0; i < n; i++ {
			if reference {
				chip.ReferenceStepInto(1e-3, &tel)
			} else {
				chip.StepInto(1e-3, &tel)
			}
			if churn {
				for c := epoch % 8; c < cores; c += 8 {
					chip.SetLevel(c, (chip.Level(c)+1)%levels)
				}
			}
			epoch++
		}
		return time.Since(start).Seconds() //odrl:allow wallclock throughput benchmark measures host wall-clock by design
	}
	runEpochs(epochs / 4) // warm caches, memos and the allocator
	best := runEpochs(epochs)
	for r := 1; r < reps; r++ {
		if s := runEpochs(epochs); s < best {
			best = s
		}
	}
	if best <= 0 {
		return 0, fmt.Errorf("benchstep: non-positive wall time for %d epochs", epochs)
	}
	return float64(epochs) / best, nil
}

// benchStepCase measures one case with both kernels.
func benchStepCase(name string, cores int, raw, churn bool, epochs, reps int) (BenchStepCase, error) {
	soa, err := benchStepKernelRate(cores, raw, churn, false, epochs, reps)
	if err != nil {
		return BenchStepCase{}, err
	}
	ref, err := benchStepKernelRate(cores, raw, churn, true, epochs, reps)
	if err != nil {
		return BenchStepCase{}, err
	}
	c := BenchStepCase{
		Name: name, Cores: cores, Raw: raw, Churn: churn, Epochs: epochs,
		EpochsPerSec: soa, ReferenceEpochsPerSec: ref,
	}
	if ref > 0 {
		c.Speedup = soa / ref
	}
	return c, nil
}

// BenchStepMinSpeedup is the throughput gate: the struct-of-arrays kernel
// must step a 256-core chip at least this many times faster than the
// reference kernel in the raw steady case (levels fixed, phases evolving,
// noise and thermal off — the kernel itself, nothing else).
const BenchStepMinSpeedup = 5.0

// BenchStep measures single-thread epoch-kernel throughput at 64, 256 and
// 1024 cores with full physics and controller-like level churn, plus the
// raw 256-core cases (steady and churn) that isolate the kernel. Quick
// mode shrinks epoch counts for CI smoke; the gate is only meaningful at
// full fidelity.
func BenchStep(cfg Config) (BenchStepReport, error) {
	rep := BenchStepReport{Host: obs.HostInfo()}
	reps := 3
	scale := 1
	if cfg.Quick {
		reps, scale = 1, 8
	}
	type spec struct {
		name       string
		cores      int
		raw, churn bool
		epochs     int
	}
	specs := []spec{
		{"default-churn-64", 64, false, true, 8000 / scale},
		{"default-churn-256", 256, false, true, 2000 / scale},
		{"default-churn-1024", 1024, false, true, 600 / scale},
		{"raw-churn-256", 256, true, true, 4000 / scale},
		{"raw-steady-256", 256, true, false, 4000 / scale},
	}
	for _, s := range specs {
		c, err := benchStepCase(s.name, s.cores, s.raw, s.churn, s.epochs, reps)
		if err != nil {
			return rep, err
		}
		rep.Cases = append(rep.Cases, c)
	}
	gate := rep.Cases[len(rep.Cases)-1] // raw-steady-256
	rep.Gate = BenchStepGate{
		Case:       gate.Name,
		MinSpeedup: BenchStepMinSpeedup,
		Speedup:    gate.Speedup,
		Pass:       gate.Speedup >= BenchStepMinSpeedup,
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r BenchStepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
