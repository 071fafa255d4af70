package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzReadRecords: the JSONL trace reader must never panic, and every
// stream it accepts must decode to records with known types.
func FuzzReadRecords(f *testing.F) {
	// Seed corpus: a real emitted stream (run_start, epochs, a fault, an
	// alert, learn and converged records, run_end), then malformed
	// variants.
	var emitted bytes.Buffer
	tr := NewTracer(NewWriterSink(&emitted), TracerOptions{Every: 1})
	run := tr.BeginRun(RunMeta{Controller: "od-rl", Cores: 4, BudgetW: 40})
	run.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 10, BudgetW: 40, DecideNs: 100})
	if fo, ok := run.(FaultObserver); ok {
		fo.ObserveFault(&FaultEvent{Epoch: 0, Kind: "core_dead", Core: 2})
	}
	if ao, ok := run.(AlertObserver); ok {
		ao.ObserveAlert(&AlertEvent{Epoch: 3, Rule: "sustained-overshoot", Metric: "overshoot_w", Op: ">", Threshold: 1, Value: 2, ForEpochs: 2})
	}
	if lo, ok := run.(LearnObserver); ok {
		lo.ObserveLearn(&LearnEvent{Epoch: 0, TDErrEMA: 0.03, Epsilon: 0.1, IslandTDEMA: []float64{0.02, 0.04}})
		lo.ObserveConverged(&ConvergedEvent{Epoch: 4, Core: 1, EpochsToConverge: 120, TDErrEMA: 1e-3, Epsilon: 0.02})
	}
	run.End()
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(emitted.String())
	f.Add(`{"type":"run_start","run":1}`)
	f.Add(`{"type":"fault","run":1,"kind":"blackout","core":-1}`)
	f.Add(`{"type":"alert","run":1,"rule":"nan-telemetry","op":"nonfinite"}`)
	f.Add(`{"type":"learn","run":1}`)
	f.Add(`{"type":"converged","run":1,"core":3}`)
	f.Add(`{"type":"mystery","run":1}`)
	f.Add(`{"type":"epoch","run":"not-a-number"}`)
	f.Add(`{}` + "\n" + `{"type":"run_end","run":1}`)
	f.Add("not json\n")

	valid := map[string]bool{
		"run_start": true, "epoch": true, "fault": true, "alert": true,
		"learn": true, "converged": true, "run_end": true,
	}
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadRecords(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range recs {
			if !valid[r.Type] {
				t.Fatalf("record %d: accepted unknown type %q", i, r.Type)
			}
		}
	})
}

// FuzzTraceRecordEncoding: the hand-written epoch, learn and converged
// encoders must produce json.Marshal's bytes for any event, and drop
// exactly the events json.Marshal rejects (NaN, ±Inf). The fuzzer's bytes are read as
// little-endian float64 words: one per scalar float field, then the
// remainder split between the slices at a fuzzed point.
func FuzzTraceRecordEncoding(f *testing.F) {
	words := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(int64(1), 0, int64(2815), uint8(0), words(0.001, 20.5, 24, 0, 330.2))
	f.Add(int64(3), -12, int64(0), uint8(2), words(math.Copysign(0, -1), 5e-324, 1e-6, 9.99e-7, 1e21, 1e-9, 0.1, 2, 3, 4, 5, 6, 7))
	f.Add(int64(2), 7, int64(-1), uint8(1), words(1, math.NaN(), 3, math.Inf(1), 5, 6, 7, 8, 9, 10, 11, 12))
	f.Fuzz(func(t *testing.T, run int64, epoch int, decideNs int64, split uint8, raw []byte) {
		var vals []float64
		for len(raw) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		next := func() float64 {
			if len(vals) == 0 {
				return 0
			}
			v := vals[0]
			vals = vals[1:]
			return v
		}
		ev := EpochEvent{Epoch: epoch, DecideNs: decideNs}
		for _, p := range epochFloats(&ev) {
			*p = next()
		}
		lv := LearnEvent{Epoch: epoch}
		for _, p := range learnFloats(&lv) {
			*p = next()
		}
		cv := ConvergedEvent{Epoch: epoch, Core: int(split) - 1, EpochsToConverge: int(decideNs)}
		for _, p := range convergedFloats(&cv) {
			*p = next()
		}
		k := int(split)
		if k > len(vals) {
			k = len(vals)
		}
		ev.IslandPowerW, lv.IslandTDEMA = vals[:k], vals[k:]
		ev.LevelHist = make([]int, k)
		for i, v := range vals[:k] {
			ev.LevelHist[i] = int(math.Float64bits(v) >> 40)
		}
		checkEpochEncoding(t, run, ev)
		checkLearnEncoding(t, run, lv)
		checkConvergedEncoding(t, run, cv)
	})
}
