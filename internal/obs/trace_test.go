package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestTracerRoundTrip emits a run through the tracer and parses it back,
// proving the JSONL schema survives a write→read cycle unchanged.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{Every: 1})

	meta := RunMeta{
		Controller: "od-rl", Workload: "mix", Cores: 16,
		BudgetW: 90, EpochS: 1e-3, Seed: 7,
	}
	run := tr.BeginRun(meta)
	events := []EpochEvent{
		{Epoch: 0, TimeS: 0.001, PowerW: 20.5, BudgetW: 90, MaxTempK: 320.25,
			IslandPowerW: []float64{10.25, 10.25}, LevelHist: []int{8, 8}, DecideNs: 1234},
		{Epoch: 1, TimeS: 0.002, PowerW: 95.0, BudgetW: 90, OvershootW: 5.0,
			MaxTempK: 331, IslandPowerW: []float64{50, 45}, LevelHist: []int{0, 16}, DecideNs: 987},
	}
	for i := range events {
		if !run.ShouldSample(events[i].Epoch) {
			t.Fatalf("stride-1 tracer refused epoch %d", events[i].Epoch)
		}
		run.ObserveEpoch(&events[i])
	}
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (run_start + 2 epochs + run_end)", len(recs))
	}
	if recs[0].Type != "run_start" || recs[0].Meta != meta {
		t.Errorf("run_start = %+v, want meta %+v", recs[0], meta)
	}
	for i, want := range events {
		got := recs[1+i]
		if got.Type != "epoch" || got.Run != recs[0].Run {
			t.Errorf("record %d: type=%q run=%d", i, got.Type, got.Run)
		}
		if !reflect.DeepEqual(got.Event, want) {
			t.Errorf("epoch %d round trip:\n got %+v\nwant %+v", i, got.Event, want)
		}
	}
	end := recs[3]
	if end.Type != "run_end" || end.Epochs != 2 || end.Sampled != 2 {
		t.Errorf("run_end = %+v, want epochs=2 sampled=2", end)
	}
}

// TestTracerDecimation checks the stride gate: only epochs divisible by
// Every sample.
func TestTracerDecimation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{Every: 7})
	run := tr.BeginRun(RunMeta{Controller: "x"})
	sampled := 0
	for e := 0; e < 100; e++ {
		if run.ShouldSample(e) {
			if e%7 != 0 {
				t.Errorf("sampled off-stride epoch %d", e)
			}
			run.ObserveEpoch(&EpochEvent{Epoch: e})
			sampled++
		}
	}
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if want := 15; sampled != want { // ceil(100/7)
		t.Errorf("sampled %d epochs, want %d", sampled, want)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Sampled != sampled {
		t.Errorf("run_end sampled = %d, want %d", last.Sampled, sampled)
	}
}

// TestTracerConcurrentRuns interleaves two runs; every line must still be
// valid JSON attributable to its run.
func TestTracerConcurrentRuns(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{})
	a := tr.BeginRun(RunMeta{Controller: "a"})
	b := tr.BeginRun(RunMeta{Controller: "b"})
	a.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 1})
	b.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 2})
	a.End()
	b.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byRun := map[int64]int{}
	for _, r := range recs {
		byRun[r.Run]++
	}
	if len(byRun) != 2 || byRun[1] != 3 || byRun[2] != 3 {
		t.Errorf("records per run = %v, want 3 each for runs 1 and 2", byRun)
	}
}

func TestNopObserver(t *testing.T) {
	run := Nop().BeginRun(RunMeta{})
	for e := 0; e < 10; e++ {
		if run.ShouldSample(e) {
			t.Fatalf("nop observer sampled epoch %d", e)
		}
	}
	run.End()
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	if _, err := ReadRecords(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadRecords(strings.NewReader(`{"type":"mystery","run":1}` + "\n")); err == nil {
		t.Error("unknown record type accepted")
	}
}

func TestLogEvent(t *testing.T) {
	var buf bytes.Buffer
	if err := LogEvent(&buf, "run-config", "seed", uint64(42), "cores", 64, "budget_w", 90.5); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if m["event"] != "run-config" {
		t.Errorf("event = %v", m["event"])
	}
	if v, ok := m["seed"].(float64); !ok || v != 42 {
		t.Errorf("seed = %v", m["seed"])
	}
	if v := m["budget_w"].(float64); math.Abs(v-90.5) > 0 {
		t.Errorf("budget_w = %v", v)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("log line missing trailing newline")
	}

	buf.Reset()
	if err := LogEvent(&buf, "odd", "only-key"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "!BADKEY") {
		t.Errorf("odd kv not flagged: %s", buf.String())
	}
}

// epochRec, learnRec and convergedRec are the json.Marshal wire shapes of
// the hand-encoded record types: the oracle that appendEpochRec,
// appendLearnRec and appendConvergedRec must reproduce byte for byte.
type epochRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	EpochEvent
}

type learnRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	LearnEvent
}

type convergedRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	ConvergedEvent
}

// matchesMarshal compares an encoder's output with json.Marshal of the
// oracle record: equal bytes when Marshal succeeds, a dropped line when it
// fails. Encoders run over a one-byte prefix, cut here, to prove they only
// append.
func matchesMarshal(t *testing.T, oracle any, got []byte, ok bool) {
	t.Helper()
	want, err := json.Marshal(oracle)
	switch {
	case err != nil && ok:
		t.Fatalf("encoded a record json.Marshal rejects (%v): %s", err, got)
	case err == nil && !ok:
		t.Fatalf("dropped a record json.Marshal encodes: %s", want)
	case err == nil && string(got[1:]) != string(want):
		t.Fatalf("record differs from json.Marshal:\n got %s\nwant %s", got[1:], want)
	}
}

func checkEpochEncoding(t *testing.T, run int64, ev EpochEvent) {
	t.Helper()
	got, ok := appendEpochRec([]byte("x"), run, &ev)
	matchesMarshal(t, epochRec{Type: "epoch", Run: run, EpochEvent: ev}, got, ok)
}

func checkLearnEncoding(t *testing.T, run int64, ev LearnEvent) {
	t.Helper()
	got, ok := appendLearnRec([]byte("x"), run, &ev)
	matchesMarshal(t, learnRec{Type: "learn", Run: run, LearnEvent: ev}, got, ok)
}

func checkConvergedEncoding(t *testing.T, run int64, ev ConvergedEvent) {
	t.Helper()
	got, ok := appendConvergedRec([]byte("x"), run, &ev)
	matchesMarshal(t, convergedRec{Type: "converged", Run: run, ConvergedEvent: ev}, got, ok)
}

// epochFloats, learnFloats and convergedFloats address every float64
// field of their event, so a table value can be placed in each in turn.
func epochFloats(ev *EpochEvent) []*float64 {
	return []*float64{&ev.TimeS, &ev.PowerW, &ev.BudgetW, &ev.OvershootW, &ev.MaxTempK,
		&ev.IPS, &ev.LearnTDEMA, &ev.LearnChurn, &ev.LearnConvergedFrac, &ev.LearnEpsilon}
}

func learnFloats(ev *LearnEvent) []*float64 {
	return []*float64{&ev.TimeS, &ev.TDErrEMA, &ev.TDErrP99, &ev.Epsilon, &ev.Churn,
		&ev.GreedyFrac, &ev.Coverage, &ev.QSpread, &ev.ConvergedFrac}
}

func convergedFloats(ev *ConvergedEvent) []*float64 {
	return []*float64{&ev.TimeS, &ev.TDErrEMA, &ev.Epsilon}
}

// encodingEdgeFloats are the values where encoding/json's float rules
// change: signed zeros, subnormals, both sides of the 'f'/'e' switches at
// 1e-6 and 1e21, exponents that need the e-09 → e-9 cleanup, the extremes
// of float64, and the non-finite values that fail the whole record.
var encodingEdgeFloats = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 1.5e-320, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
	1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.99999e-7,
	1e-7, 1e-9, -3.5e-9, 1.25e-10, 1e-100,
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1.5e22,
	0.1, 1.0 / 3, 2.5, -7, 320.25, 1e15 + 0.3, 123456789012345680000,
	math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestTraceRecordEncodingTable places every edge value in every float
// field and slice slot of the hand-encoded records, with nil, empty and
// non-empty slices and negative epochs, and requires json.Marshal's bytes.
func TestTraceRecordEncodingTable(t *testing.T) {
	islands := [][]float64{nil, {}, {12.5}, {1, 2.25, 3e-7}}
	hists := [][]int{nil, {}, {16}, {0, 3, -1, 13}}
	base := EpochEvent{Epoch: 42, TimeS: 0.043, PowerW: 20.5, BudgetW: 24, MaxTempK: 331.7, DecideNs: 2815}
	baseLearn := LearnEvent{Epoch: 42, TimeS: 0.043, TDErrEMA: 0.02, Epsilon: 0.1, Coverage: 0.5}
	for _, epoch := range []int{0, 1, -1, -250, math.MaxInt32} {
		for _, run := range []int64{1, 0, -3, math.MaxInt64} {
			for i, isl := range islands {
				ev := base
				ev.Epoch, ev.IslandPowerW, ev.LevelHist = epoch, isl, hists[i]
				checkEpochEncoding(t, run, ev)
				lv := baseLearn
				lv.Epoch, lv.IslandTDEMA = epoch, isl
				checkLearnEncoding(t, run, lv)
			}
			checkConvergedEncoding(t, run, ConvergedEvent{Epoch: epoch, TimeS: 0.5, Core: epoch % 16,
				EpochsToConverge: -epoch, TDErrEMA: 1e-3, Epsilon: 0.02})
		}
	}
	for _, v := range encodingEdgeFloats {
		for f := range epochFloats(&EpochEvent{}) {
			ev := base
			*epochFloats(&ev)[f] = v
			checkEpochEncoding(t, 1, ev)
		}
		for f := range learnFloats(&LearnEvent{}) {
			lv := baseLearn
			*learnFloats(&lv)[f] = v
			checkLearnEncoding(t, 1, lv)
		}
		for f := range convergedFloats(&ConvergedEvent{}) {
			cv := ConvergedEvent{Epoch: -3, TimeS: 0.25, Core: 5, EpochsToConverge: 800, TDErrEMA: 0.004, Epsilon: 0.05}
			*convergedFloats(&cv)[f] = v
			checkConvergedEncoding(t, 1, cv)
		}
		ev := base
		ev.IslandPowerW = []float64{1, v, 2}
		ev.DecideNs = -int64(math.Float64bits(v) >> 1)
		checkEpochEncoding(t, 1, ev)
		lv := baseLearn
		lv.IslandTDEMA = []float64{v}
		checkLearnEncoding(t, 1, lv)
	}
}

// TestTraceRecordEncodingRandom compares the encoders with json.Marshal on
// events drawn from random bit patterns (every float class, NaN included)
// and from random magnitudes across 10^±30.
func TestTraceRecordEncodingRandom(t *testing.T) {
	r := rng.New(2015)
	draw := func() float64 {
		switch r.Intn(3) {
		case 0:
			return math.Float64frombits(r.Uint64())
		case 1:
			return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(61)-30))
		default:
			return float64(r.Intn(2000)-1000) / 8
		}
	}
	drawSlice := func() []float64 {
		n := r.Intn(5) - 1
		if n < 0 {
			return nil
		}
		s := make([]float64, n)
		for i := range s {
			s[i] = draw()
		}
		return s
	}
	for i := 0; i < 20000; i++ {
		ev := EpochEvent{Epoch: r.Intn(1<<20) - 1<<10, DecideNs: int64(r.Uint64())}
		for _, p := range epochFloats(&ev) {
			if r.Intn(4) > 0 {
				*p = draw()
			}
		}
		ev.IslandPowerW = drawSlice()
		if n := r.Intn(5) - 1; n >= 0 {
			ev.LevelHist = make([]int, n)
			for j := range ev.LevelHist {
				ev.LevelHist[j] = r.Intn(1025)
			}
		}
		checkEpochEncoding(t, int64(r.Intn(1000)), ev)

		lv := LearnEvent{Epoch: ev.Epoch, IslandTDEMA: drawSlice()}
		for _, p := range learnFloats(&lv) {
			if r.Intn(4) > 0 {
				*p = draw()
			}
		}
		checkLearnEncoding(t, int64(r.Intn(1000)), lv)

		cv := ConvergedEvent{Epoch: ev.Epoch, Core: r.Intn(1024) - 1, EpochsToConverge: r.Intn(1 << 20)}
		for _, p := range convergedFloats(&cv) {
			*p = draw()
		}
		checkConvergedEncoding(t, int64(r.Intn(1000)), cv)
	}
}

// lineSink keeps a copy of every emitted line.
type lineSink struct{ lines []string }

func (s *lineSink) Emit(line []byte) error { s.lines = append(s.lines, string(line)); return nil }
func (s *lineSink) Close() error           { return nil }

// TestTracerDropsNonFiniteRecords: an epoch, learn or converged record
// holding NaN or ±Inf emits no line, while the records around it are
// emitted intact and the run's counters still count the dropped epoch.
func TestTracerDropsNonFiniteRecords(t *testing.T) {
	sink := &lineSink{}
	tr := NewTracer(sink, TracerOptions{})
	run := tr.BeginRun(RunMeta{Controller: "od-rl"})
	lo := run.(LearnObserver)
	run.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 1})
	run.ObserveEpoch(&EpochEvent{Epoch: 1, PowerW: math.NaN()})
	lo.ObserveLearn(&LearnEvent{Epoch: 1, IslandTDEMA: []float64{math.Inf(-1)}})
	lo.ObserveLearn(&LearnEvent{Epoch: 2, Epsilon: 0.5})
	lo.ObserveConverged(&ConvergedEvent{Epoch: 2, TDErrEMA: math.NaN()})
	lo.ObserveConverged(&ConvergedEvent{Epoch: 3, Core: 4, EpochsToConverge: 90, Epsilon: 1e-7})
	run.End()
	want := []string{
		`{"type":"run_start","run":1,"controller":"od-rl"}`,
		`{"type":"epoch","run":1,"epoch":0,"time_s":0,"power_w":1,"budget_w":0,"overshoot_w":0,"max_temp_k":0,"decide_ns":0}`,
		`{"type":"learn","run":1,"epoch":2,"time_s":0,"td_ema":0,"td_p99":0,"epsilon":0.5,"churn":0,"greedy_frac":0,"coverage":0,"q_spread":0,"converged_frac":0}`,
		`{"type":"converged","run":1,"epoch":3,"time_s":0,"core":4,"epochs_to_converge":90,"td_ema":0,"epsilon":1e-7}`,
		`{"type":"run_end","run":1,"epochs":2,"sampled":2}`,
	}
	if !reflect.DeepEqual(sink.lines, want) {
		t.Fatalf("emitted lines:\n%s\nwant:\n%s", strings.Join(sink.lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestTracerEpochEmitZeroAlloc: once its line buffer has grown, the
// tracer encodes and emits epoch, learn and converged records without
// allocating.
func TestTracerEpochEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(discardSink{}, TracerOptions{})
	run := tr.BeginRun(RunMeta{})
	lo := run.(LearnObserver)
	ev := EpochEvent{TimeS: 0.25, PowerW: 23.75, BudgetW: 24, OvershootW: 1e-7, MaxTempK: 330.1,
		IslandPowerW: []float64{11.5, 12.25}, LevelHist: []int{4, 12}, DecideNs: 2900, IPS: 3.2e10}
	lv := LearnEvent{TimeS: 0.25, TDErrEMA: 0.013, Epsilon: 0.05, IslandTDEMA: []float64{0.01, 0.02}}
	cv := ConvergedEvent{TimeS: 0.25, Core: 3, EpochsToConverge: 250, TDErrEMA: 4e-3, Epsilon: 0.05}
	allocs := testing.AllocsPerRun(200, func() {
		ev.Epoch++
		lv.Epoch++
		cv.Epoch++
		run.ObserveEpoch(&ev)
		lo.ObserveLearn(&lv)
		lo.ObserveConverged(&cv)
	})
	if allocs != 0 {
		t.Fatalf("epoch+learn+converged emit allocates %.2f times per epoch, want 0", allocs)
	}
}

type discardSink struct{}

func (discardSink) Emit([]byte) error { return nil }
func (discardSink) Close() error      { return nil }
