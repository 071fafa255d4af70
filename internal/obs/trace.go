package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// RunMeta identifies one simulation run in the trace stream.
type RunMeta struct {
	Controller string  `json:"controller,omitempty"`
	Workload   string  `json:"workload,omitempty"`
	Cores      int     `json:"cores,omitempty"`
	BudgetW    float64 `json:"budget_w,omitempty"`
	EpochS     float64 `json:"epoch_s,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
}

// EpochEvent is one sampled measurement epoch. Epoch counts from zero at
// the start of the measurement window. PowerW is the exact (noise-free)
// chip power, so integrating PowerW·EpochS over an undecimated trace
// reproduces the run's measured energy.
type EpochEvent struct {
	Epoch      int     `json:"epoch"`
	TimeS      float64 `json:"time_s"`
	PowerW     float64 `json:"power_w"`
	BudgetW    float64 `json:"budget_w"`
	OvershootW float64 `json:"overshoot_w"`
	MaxTempK   float64 `json:"max_temp_k"`
	// IslandPowerW sums observed per-core power by voltage-frequency
	// island (one entry for the whole chip when per-core DVFS is active).
	IslandPowerW []float64 `json:"island_power_w,omitempty"`
	// LevelHist counts cores per VF level at the start of the epoch.
	LevelHist []int `json:"level_hist,omitempty"`
	// DecideNs is the wall-clock controller decision latency this epoch.
	DecideNs int64 `json:"decide_ns"`
	// IPS is the chip-wide observed instruction throughput (sum of per-core
	// sensor readings), the per-epoch form of the BIPS the tables report.
	IPS float64 `json:"ips,omitempty"`
	// Learn* mirror the learning-introspection layer's headline metrics into
	// the epoch stream (so the monitor's frame store and alert rules see
	// them). All omitempty: traces recorded without -learn are byte-identical
	// to traces from builds that predate these fields.
	LearnTDEMA         float64 `json:"learn_td_ema,omitempty"`
	LearnChurn         float64 `json:"learn_churn,omitempty"`
	LearnConvergedFrac float64 `json:"learn_converged_frac,omitempty"`
	LearnEpsilon       float64 `json:"learn_epsilon,omitempty"`
}

// FaultEvent is one discrete injected fault (core death, telemetry
// blackout, budget-drop transient) reported by the fault-injection layer.
// Epoch counts from zero at the start of the measurement window and is
// negative for faults injected during warmup.
type FaultEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	// Kind names the fault class (see package fault's Kind* constants).
	Kind string `json:"kind"`
	// Core is the affected core, -1 for chip-wide faults.
	Core int `json:"core"`
	// UntilS is when the fault window ends; permanent faults omit it.
	UntilS float64 `json:"until_s,omitempty"`
}

// FaultObserver is optionally implemented by RunObservers that want the
// discrete fault events of a run alongside its epoch stream. Fault events
// are rare, so they are delivered unconditionally (no ShouldSample gate).
type FaultObserver interface {
	ObserveFault(ev *FaultEvent)
}

// AlertEvent is one fired run-health alert: a declarative rule (see
// internal/obs/monitor) whose condition held for its full ForEpochs
// window. Epoch counts from zero at the start of the measurement window.
type AlertEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	// Rule is the fired rule's name, Metric/Op/Threshold its condition.
	Rule      string  `json:"rule"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// Value is the metric value at the epoch the alert fired.
	Value float64 `json:"value"`
	// ForEpochs is how many consecutive epochs the condition held before
	// firing.
	ForEpochs int `json:"for_epochs"`
}

// AlertObserver is optionally implemented by RunObservers that want fired
// alerts in the run's stream. Like faults, alerts are rare and delivered
// unconditionally.
type AlertObserver interface {
	ObserveAlert(ev *AlertEvent)
}

// Record is one decoded JSONL trace line. Type selects which of the other
// fields are meaningful.
type Record struct {
	Type string `json:"type"` // "run_start" | "epoch" | "fault" | "alert" | "learn" | "converged" | "run_end"
	Run  int64  `json:"run"`
	// Meta is valid for run_start records.
	Meta RunMeta `json:"-"`
	// Event is valid for epoch records.
	Event EpochEvent `json:"-"`
	// Fault is valid for fault records.
	Fault FaultEvent `json:"-"`
	// Alert is valid for alert records.
	Alert AlertEvent `json:"-"`
	// Learn is valid for learn records.
	Learn LearnEvent `json:"-"`
	// Conv is valid for converged records.
	Conv ConvergedEvent `json:"-"`
	// Epochs and Sampled are valid for run_end records.
	Epochs  int `json:"epochs,omitempty"`
	Sampled int `json:"sampled,omitempty"`
}

// wire shapes for the rare record types, emitted through json.Marshal:
// embedding inlines the payload fields so each line is one flat JSON
// object. The per-epoch epoch and learn records, and the converged
// records of a learning transient, have hand-written encoders
// (appendEpochRec, appendLearnRec, appendConvergedRec) that produce the
// bytes json.Marshal would for the same embedding.
type runStartRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	RunMeta
}

type faultRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	FaultEvent
}

type alertRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	AlertEvent
}

type runEndRec struct {
	Type    string `json:"type"`
	Run     int64  `json:"run"`
	Epochs  int    `json:"epochs"`
	Sampled int    `json:"sampled"`
}

// Sink consumes encoded trace lines. Emit receives one JSON object without
// a trailing newline and must not retain the slice. Implementations are
// called under the tracer's lock, so they need not be concurrency-safe.
type Sink interface {
	Emit(line []byte) error
	Close() error
}

// WriterSink buffers lines to an io.Writer, closing it on Close when it is
// also an io.Closer.
type WriterSink struct {
	w  io.Writer
	bw *bufio.Writer
}

// NewWriterSink wraps w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{w: w, bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (s *WriterSink) Emit(line []byte) error {
	if _, err := s.bw.Write(line); err != nil {
		return err
	}
	return s.bw.WriteByte('\n')
}

// Close implements Sink.
func (s *WriterSink) Close() error {
	err := s.bw.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Observer receives structured events from simulation runs. BeginRun is
// called once per run and returns a handle scoped to that run, so one
// Observer may watch many (possibly concurrent) runs.
type Observer interface {
	BeginRun(meta RunMeta) RunObserver
}

// RunObserver consumes one run's epoch stream. The harness calls
// ShouldSample first and skips event assembly entirely when it returns
// false, keeping the disabled path free. ObserveEpoch must not retain the
// event or its slices. End marks the run finished.
type RunObserver interface {
	ShouldSample(epoch int) bool
	ObserveEpoch(ev *EpochEvent)
	End()
}

// EpochDetailSampler is an optional RunObserver refinement for observers
// that sample every epoch but only need the expensive aggregate fields
// (IslandPowerW, LevelHist) on some of them. When a RunObserver implements
// it, the harness calls WantsEpochDetail after a true ShouldSample (same
// epoch, same goroutine) and on false delivers the event with those slices
// nil; the scalar fields are always populated. Observers that don't
// implement it get full detail on every sampled epoch.
type EpochDetailSampler interface {
	WantsEpochDetail(epoch int) bool
}

// Nop returns an Observer whose runs sample nothing — the reference
// "disabled" observer whose per-epoch cost is a single predictable branch.
func Nop() Observer { return nopObserver{} }

type nopObserver struct{}

func (nopObserver) BeginRun(RunMeta) RunObserver { return nopRun{} }

type nopRun struct{}

func (nopRun) ShouldSample(int) bool    { return false }
func (nopRun) ObserveEpoch(*EpochEvent) {}
func (nopRun) End()                     {}

// TracerOptions tunes a Tracer.
type TracerOptions struct {
	// Every is the decimation stride: epochs 0, Every, 2·Every, … are
	// sampled. Values below 1 default to 1 (sample every epoch).
	Every int
	// Registry, when set, receives aggregate tracer metrics: run and
	// sample counters plus a decision-latency histogram.
	Registry *Registry
}

// Tracer is an Observer that emits JSONL records to a Sink. It is safe for
// concurrent runs; lines from interleaved runs are distinguished by run ID.
type Tracer struct {
	mu    sync.Mutex
	sink  Sink
	every int
	runs  atomic.Int64
	// line is the hand-written encoders' output buffer, reused under mu
	// (the Sink contract forbids retaining it).
	line []byte

	runCtr     *Counter
	sampleCtr  *Counter
	decideHist *Histogram
}

// NewTracer builds a tracer over the sink.
func NewTracer(sink Sink, opt TracerOptions) *Tracer {
	if opt.Every < 1 {
		opt.Every = 1
	}
	t := &Tracer{sink: sink, every: opt.Every}
	if r := opt.Registry; r != nil {
		t.runCtr = r.Counter("obs.trace.runs")
		t.sampleCtr = r.Counter("obs.trace.samples")
		// Decision latency from sub-microsecond per-core loops up to
		// multi-millisecond centralised sweeps.
		t.decideHist, _ = r.Histogram("obs.trace.decide_ns", []float64{
			1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
		})
	}
	return t
}

// BeginRun implements Observer.
func (t *Tracer) BeginRun(meta RunMeta) RunObserver {
	id := t.runs.Add(1)
	if t.runCtr != nil {
		t.runCtr.Inc()
	}
	t.emit(runStartRec{Type: "run_start", Run: id, RunMeta: meta})
	return &runTracer{t: t, id: id}
}

// Close flushes and closes the sink.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink.Close()
}

func (t *Tracer) emit(rec any) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink.Emit(b) //nolint:errcheck // tracing is best-effort; sinks surface errors on Close
}

// emitLine keeps line as the tracer's reusable line buffer and emits it,
// unless the encoder dropped the record (ok false: a NaN or ±Inf, which
// json.Marshal's error drops on the emit path). Call with t.mu held; the
// per-epoch records are encoded into t.line under the same lock.
//
//odrl:hotpath
func (t *Tracer) emitLine(line []byte, ok bool) {
	t.line = line
	if ok {
		t.sink.Emit(line) //nolint:errcheck // tracing is best-effort; sinks surface errors on Close
	}
}

// runTracer tracks one run's stream. The counters are atomic so a single
// run's observer tolerates concurrent emitters (e.g. a sharded stepping
// loop reporting from worker goroutines), matching the Tracer's own
// concurrency guarantee.
type runTracer struct {
	t       *Tracer
	id      int64
	epochs  atomic.Int64
	sampled atomic.Int64
}

// ShouldSample implements RunObserver.
func (r *runTracer) ShouldSample(epoch int) bool {
	return epoch%r.t.every == 0
}

// ObserveEpoch implements RunObserver.
//
//odrl:hotpath
func (r *runTracer) ObserveEpoch(ev *EpochEvent) {
	last := int64(ev.Epoch + 1)
	for {
		seen := r.epochs.Load()
		if last <= seen || r.epochs.CompareAndSwap(seen, last) {
			break
		}
	}
	r.sampled.Add(1)
	if r.t.sampleCtr != nil {
		r.t.sampleCtr.Inc()
	}
	if r.t.decideHist != nil {
		r.t.decideHist.Observe(float64(ev.DecideNs))
	}
	t := r.t
	t.mu.Lock()
	t.emitLine(appendEpochRec(t.line[:0], r.id, ev))
	t.mu.Unlock()
}

// ObserveFault implements FaultObserver.
func (r *runTracer) ObserveFault(ev *FaultEvent) {
	r.t.emit(faultRec{Type: "fault", Run: r.id, FaultEvent: *ev})
}

// ObserveAlert implements AlertObserver.
func (r *runTracer) ObserveAlert(ev *AlertEvent) {
	r.t.emit(alertRec{Type: "alert", Run: r.id, AlertEvent: *ev})
}

// ObserveLearn implements LearnObserver. Learn events follow the epoch
// stream's sampling, so no extra gate is needed here.
//
//odrl:hotpath
func (r *runTracer) ObserveLearn(ev *LearnEvent) {
	t := r.t
	t.mu.Lock()
	t.emitLine(appendLearnRec(t.line[:0], r.id, ev))
	t.mu.Unlock()
}

// ObserveConverged implements LearnObserver. Converged events are rare
// but cluster in a learning transient, so they share the allocation-free
// encoder path.
//
//odrl:hotpath
func (r *runTracer) ObserveConverged(ev *ConvergedEvent) {
	t := r.t
	t.mu.Lock()
	t.emitLine(appendConvergedRec(t.line[:0], r.id, ev))
	t.mu.Unlock()
}

// End implements RunObserver.
func (r *runTracer) End() {
	r.t.emit(runEndRec{
		Type: "run_end", Run: r.id,
		Epochs: int(r.epochs.Load()), Sampled: int(r.sampled.Load()),
	})
}

// ReadRecords parses a JSONL trace stream back into records, the inverse
// of what Tracer emits.
func ReadRecords(rd io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
			Run  int64  `json:"run"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		rec := Record{Type: probe.Type, Run: probe.Run}
		switch probe.Type {
		case "run_start":
			if err := json.Unmarshal(raw, &rec.Meta); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "epoch":
			if err := json.Unmarshal(raw, &rec.Event); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "fault":
			if err := json.Unmarshal(raw, &rec.Fault); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "alert":
			if err := json.Unmarshal(raw, &rec.Alert); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "learn":
			if err := json.Unmarshal(raw, &rec.Learn); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "converged":
			if err := json.Unmarshal(raw, &rec.Conv); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "run_end":
			var end runEndRec
			if err := json.Unmarshal(raw, &end); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rec.Epochs, rec.Sampled = end.Epochs, end.Sampled
		default:
			return nil, fmt.Errorf("obs: trace line %d: unknown record type %q", line, probe.Type)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// appendEpochRec appends the epoch record of run as the exact bytes
// json.Marshal gives for the flat object {"type":"epoch","run":run,…ev}:
// EpochEvent's field order, omitempty rules and float formatting. ok is
// false when a float field is NaN or ±Inf, which json.Marshal rejects.
//
//odrl:hotpath
func appendEpochRec(b []byte, run int64, ev *EpochEvent) (_ []byte, ok bool) {
	e := lineEncoder{b: b}
	e.raw(`{"type":"epoch","run":`)
	e.int(run)
	e.raw(`,"epoch":`)
	e.int(int64(ev.Epoch))
	e.float(`,"time_s":`, ev.TimeS)
	e.float(`,"power_w":`, ev.PowerW)
	e.float(`,"budget_w":`, ev.BudgetW)
	e.float(`,"overshoot_w":`, ev.OvershootW)
	e.float(`,"max_temp_k":`, ev.MaxTempK)
	e.floats(`,"island_power_w":`, ev.IslandPowerW)
	if len(ev.LevelHist) > 0 {
		e.raw(`,"level_hist":[`)
		for i, v := range ev.LevelHist {
			if i > 0 {
				e.raw(",")
			}
			e.int(int64(v))
		}
		e.raw("]")
	}
	e.raw(`,"decide_ns":`)
	e.int(ev.DecideNs)
	e.floatOmit(`,"ips":`, ev.IPS)
	e.floatOmit(`,"learn_td_ema":`, ev.LearnTDEMA)
	e.floatOmit(`,"learn_churn":`, ev.LearnChurn)
	e.floatOmit(`,"learn_converged_frac":`, ev.LearnConvergedFrac)
	e.floatOmit(`,"learn_epsilon":`, ev.LearnEpsilon)
	e.raw("}")
	return e.b, !e.bad
}

// appendLearnRec is appendEpochRec for {"type":"learn","run":run,…ev}.
//
//odrl:hotpath
func appendLearnRec(b []byte, run int64, ev *LearnEvent) (_ []byte, ok bool) {
	e := lineEncoder{b: b}
	e.raw(`{"type":"learn","run":`)
	e.int(run)
	e.raw(`,"epoch":`)
	e.int(int64(ev.Epoch))
	e.float(`,"time_s":`, ev.TimeS)
	e.float(`,"td_ema":`, ev.TDErrEMA)
	e.float(`,"td_p99":`, ev.TDErrP99)
	e.float(`,"epsilon":`, ev.Epsilon)
	e.float(`,"churn":`, ev.Churn)
	e.float(`,"greedy_frac":`, ev.GreedyFrac)
	e.float(`,"coverage":`, ev.Coverage)
	e.float(`,"q_spread":`, ev.QSpread)
	e.float(`,"converged_frac":`, ev.ConvergedFrac)
	e.floats(`,"island_td_ema":`, ev.IslandTDEMA)
	e.raw("}")
	return e.b, !e.bad
}

// appendConvergedRec is appendEpochRec for
// {"type":"converged","run":run,…ev}.
//
//odrl:hotpath
func appendConvergedRec(b []byte, run int64, ev *ConvergedEvent) (_ []byte, ok bool) {
	e := lineEncoder{b: b}
	e.raw(`{"type":"converged","run":`)
	e.int(run)
	e.raw(`,"epoch":`)
	e.int(int64(ev.Epoch))
	e.float(`,"time_s":`, ev.TimeS)
	e.raw(`,"core":`)
	e.int(int64(ev.Core))
	e.raw(`,"epochs_to_converge":`)
	e.int(int64(ev.EpochsToConverge))
	e.float(`,"td_ema":`, ev.TDErrEMA)
	e.float(`,"epsilon":`, ev.Epsilon)
	e.raw("}")
	return e.b, !e.bad
}

// lineEncoder appends one flat JSON object field by field. Keys are passed
// pre-quoted with their leading comma and colon.
type lineEncoder struct {
	b []byte
	// bad records a NaN or ±Inf: json.Marshal fails the whole record.
	bad bool
}

//odrl:hotpath
func (e *lineEncoder) raw(s string) { e.b = append(e.b, s...) }

//odrl:hotpath
func (e *lineEncoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float appends key and v, the form of a float64 field without omitempty.
//
//odrl:hotpath
func (e *lineEncoder) float(key string, v float64) {
	e.raw(key)
	e.value(v)
}

// floatOmit appends key and v unless v is zero (either sign), as
// omitempty does.
//
//odrl:hotpath
func (e *lineEncoder) floatOmit(key string, v float64) {
	if v != 0 {
		e.float(key, v)
	}
}

// floats appends key and vs as an array unless vs is empty, as omitempty
// does for a nil or empty slice.
//
//odrl:hotpath
func (e *lineEncoder) floats(key string, vs []float64) {
	if len(vs) == 0 {
		return
	}
	e.raw(key)
	e.raw("[")
	for i, v := range vs {
		if i > 0 {
			e.raw(",")
		}
		e.value(v)
	}
	e.raw("]")
}

// value appends v as encoding/json formats a float64: the shortest
// round-trip digits, in 'f' form unless |v| < 1e-6 or |v| ≥ 1e21, where
// it switches to 'e' form with a one-digit negative exponent written as
// e-9 rather than e-09.
//
//odrl:hotpath
func (e *lineEncoder) value(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}
