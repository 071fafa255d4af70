package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
)

// defaultSeed is the benchmark seed whose digests are recorded.
const defaultSeed = 1

// recordedJSON holds the digests of the default-seed, full-size pass of
// every workload, with the host they were recorded on. A change that
// alters a random stream or the simulated model must re-record them.
//
//go:embed recorded.json
var recordedJSON []byte

// recordedDigest returns the recorded digest for a workload, or "" when
// none is recorded.
func recordedDigest(name string) (string, error) {
	var r struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		return "", fmt.Errorf("recorded.json: %w", err)
	}
	return r.Digests[name], nil
}

// outcome is the simulated statistics of one run that the digest covers.
type outcome struct {
	instr, energyJ, overJ, overTimeS, peakW float64
	levels                                  []int
}

func resultOutcome(r sim.Result) outcome {
	s := r.Summary
	return outcome{s.Instr, s.EnergyJ, s.OverJ, s.OverTimeS, s.PeakW, r.FinalLevels}
}

// digest hashes the outcomes of a pass, bit-exactly.
func digestOutcomes(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		for _, v := range []float64{o.instr, o.energyJ, o.overJ, o.overTimeS, o.peakW} {
			fmt.Fprintf(h, "%016x ", math.Float64bits(v))
		}
		for _, l := range o.levels {
			fmt.Fprintf(h, "%d,", l)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestRows hashes the rows of an engine table. The engine reports its
// runs only as formatted cells, so grid passes are compared at that
// precision.
func digestRows(rows [][]string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(strings.Join(r, "\t")))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestTable(t experiments.Table) string { return digestRows(t.Rows) }

// gridRow renders one driven grid job the way the scenario engine renders
// a comparison row, so a driven grid digests like the engine's table.
func gridRow(j job, m *power.Meter, instr float64) []string {
	s := metrics.Summary{
		Cores: j.opts.Cores, BudgetW: j.opts.BudgetW, DurS: m.TimeS(),
		Instr: instr, EnergyJ: m.EnergyJ(), OverJ: m.OverBudgetJ(),
		OverTimeS: m.OverBudgetTimeS(), PeakW: m.PeakW(), MeanW: m.MeanW(),
	}
	return []string{
		strconv.FormatUint(j.opts.Seed, 10), j.opts.Workload, j.controller,
		strconv.Itoa(s.Cores), cell(s.BudgetW),
		cell(s.BIPS()), cell(s.MeanW), cell(s.PeakW),
		cell(s.OverJ), cell(100 * s.OverTimeFrac()), cell(s.EnergyEff()),
	}
}

// cell formats a float as the scenario engine's table cells do.
func cell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// digestCheck counts the passes of one workload and seed whose digest
// disagrees with the first pass's, or with want when want is set.
type digestCheck struct {
	want  string
	first string
	seen  int
	bad   int
}

// add records one pass's digest and reports whether it is consistent.
func (d *digestCheck) add(dg string) bool {
	d.seen++
	if d.seen == 1 {
		d.first = dg
	}
	ok := dg == d.first && (d.want == "" || dg == d.want)
	if !ok {
		d.bad++
	}
	return ok
}
