// Package monitor is the streaming run-health layer on top of package obs:
// O(1) quantile sketches, a declarative alert-rules engine evaluating
// paper-claim invariants online, a controller phase-span timeline for
// Perfetto export, and an end-of-run alert summary. It observes simulation
// runs through the standard obs.Observer chain and never influences them:
// simulation output is bit-identical with monitoring on or off.
package monitor

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/obs"
)

// maxKeptAlerts bounds the per-run alert list the summary retains; the
// fired counters stay exact beyond it.
const maxKeptAlerts = 64

// ipsEMAAlpha smooths the per-epoch chip throughput before the
// collapse-detection metrics (ips_vs_peak): ~20-epoch memory, so workload
// phase flickers don't read as collapses.
const ipsEMAAlpha = 0.05

// overshootEMAAlpha smooths the overshoot fraction (~10-epoch memory):
// long enough to bridge an oscillating controller's under-budget epochs,
// short enough that a genuine violation registers within the rule's
// consecutive-epoch window.
const overshootEMAAlpha = 0.1

// p99RefreshEpochs is how often the decide_p99_ns derived metric is
// recomputed from the sketch; quantile queries walk the bucket array, so
// refreshing on a stride keeps the per-epoch cost O(1).
const p99RefreshEpochs = 16

// Options configures a Monitor.
type Options struct {
	// Rules is the alert rule set evaluated for every run. Empty installs
	// DefaultRules derived from each run's own budget and epoch length.
	Rules []Rule
	// TimelineCap bounds the retained phase spans (default
	// DefaultTimelineCap).
	TimelineCap int
}

// Monitor is the run-health layer: an obs.Observer that feeds every run's
// epoch stream into quantile sketches and the alert engine, and keeps a
// span timeline for Perfetto export. It is safe for concurrent runs and
// never mutates what it observes, so simulation results are bit-identical
// with or without it.
type Monitor struct {
	opt      Options
	timeline *Timeline

	mu   sync.Mutex
	runs []*RunHealth // completed and active runs, in BeginRun order
}

// New builds a monitor.
func New(opt Options) *Monitor {
	if opt.TimelineCap <= 0 {
		opt.TimelineCap = DefaultTimelineCap
	}
	return &Monitor{opt: opt, timeline: NewTimeline(opt.TimelineCap)}
}

// Timeline returns the monitor's phase-span timeline (the obs.SpanSink the
// harness attaches to span-streaming controllers).
func (m *Monitor) Timeline() *Timeline { return m.timeline }

// RunHealth is one run's health record.
type RunHealth struct {
	ID   int
	Meta obs.RunMeta
	// Epochs and Faults count observed measurement epochs and injected
	// faults; AlertCount counts fired alerts (Alerts keeps the first
	// maxKeptAlerts of them).
	Epochs     int
	Faults     int
	AlertCount int
	Alerts     []obs.AlertEvent
	// Decide and Overshoot are the run's streaming sketches (decide
	// latency in ns, per-epoch overshoot in W).
	Decide    *Sketch
	Overshoot *Sketch
	// Done marks the run ended.
	Done bool
}

// Wrap chains the monitor in front of next (commonly the JSONL tracer):
// the returned Observer feeds the monitor every epoch and still honours
// next's own sampling stride. next may be nil.
func (m *Monitor) Wrap(next obs.Observer) obs.Observer {
	return chainObserver{m: m, next: next}
}

// BeginRun implements obs.Observer (a bare monitor with no chained
// tracer).
func (m *Monitor) BeginRun(meta obs.RunMeta) obs.RunObserver {
	return m.beginRun(meta, nil)
}

func (m *Monitor) beginRun(meta obs.RunMeta, next obs.RunObserver) obs.RunObserver {
	rules := m.opt.Rules
	if len(rules) == 0 {
		rules = DefaultRules(meta.BudgetW, meta.EpochS)
	}
	eng, err := newEngine(rules)
	if err != nil {
		// Rules were validated at load time; an invalid set here is a
		// programming error — fall back to the derived defaults rather
		// than silently un-monitoring the run.
		eng, _ = newEngine(DefaultRules(meta.BudgetW, meta.EpochS))
	}
	h := &RunHealth{
		Meta:      meta,
		Decide:    NewSketch(),
		Overshoot: NewSketch(),
	}
	m.mu.Lock()
	h.ID = len(m.runs) + 1
	m.runs = append(m.runs, h)
	m.mu.Unlock()
	return &monitorRun{m: m, h: h, next: next, eng: eng}
}

// Runs snapshots the per-run health records (shallow copies: sketches are
// shared, so callers must treat them as read-only once the run is done).
func (m *Monitor) Runs() []RunHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunHealth, len(m.runs))
	for i, h := range m.runs {
		out[i] = *h
	}
	return out
}

// AlertsFired returns the total alert count across all runs.
func (m *Monitor) AlertsFired() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.runs {
		n += h.AlertCount
	}
	return n
}

// WriteAlertSummary renders the end-of-run health table: one row per run
// with decide-latency and overshoot quantiles and the fired-alert count,
// then one row per fired alert. Writes nothing when no runs were observed.
func (m *Monitor) WriteAlertSummary(w io.Writer) error {
	runs := m.Runs()
	if len(runs) == 0 {
		return nil
	}
	rows := [][]string{{
		"run", "controller", "epochs", "faults", "alerts",
		"decide p50(us)", "p95(us)", "p99(us)", "max(us)", "overshoot p99(W)",
	}}
	for _, h := range runs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", h.ID),
			h.Meta.Controller,
			fmt.Sprintf("%d", h.Epochs),
			fmt.Sprintf("%d", h.Faults),
			fmt.Sprintf("%d", h.AlertCount),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.5)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.95)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.99)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Max()/1e3),
			fmt.Sprintf("%.3f", h.Overshoot.Quantile(0.99)),
		})
	}
	if _, err := fmt.Fprintln(w, "\nrun-health summary:"); err != nil {
		return err
	}
	if err := writeAligned(w, rows); err != nil {
		return err
	}
	fired := false
	for _, h := range runs {
		for _, a := range h.Alerts {
			if !fired {
				if _, err := fmt.Fprintln(w, "\nfired alerts:"); err != nil {
					return err
				}
				fired = true
			}
			if _, err := fmt.Fprintf(w, "  run %d (%s) epoch %d t=%.3fs: %s — %s %s %g (value %.4g, held %d epochs)\n",
				h.ID, h.Meta.Controller, a.Epoch, a.TimeS, a.Rule, a.Metric, a.Op, a.Threshold, a.Value, a.ForEpochs); err != nil {
				return err
			}
		}
		if h.AlertCount > len(h.Alerts) {
			if _, err := fmt.Fprintf(w, "  run %d: … %d more alerts not retained\n", h.ID, h.AlertCount-len(h.Alerts)); err != nil {
				return err
			}
		}
	}
	if !fired {
		if _, err := fmt.Fprintln(w, "no alerts fired"); err != nil {
			return err
		}
	}
	return nil
}

// writeAligned pads each column to its widest cell (the sim table idiom,
// duplicated here so obs/monitor does not depend on internal/sim).
func writeAligned(w io.Writer, rows [][]string) error {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// chainObserver is the Wrap product: monitor plus downstream observer.
type chainObserver struct {
	m    *Monitor
	next obs.Observer
}

func (c chainObserver) BeginRun(meta obs.RunMeta) obs.RunObserver {
	var next obs.RunObserver
	if c.next != nil {
		next = c.next.BeginRun(meta)
	}
	return c.m.beginRun(meta, next)
}

// monitorRun consumes one run's stream. It relies on the documented
// RunObserver protocol — ShouldSample(e) immediately precedes any
// ObserveEpoch for epoch e on the same goroutine — to route events to the
// downstream observer only on its own sampling stride while the monitor
// itself sees every epoch.
type monitorRun struct {
	m    *Monitor
	h    *RunHealth
	next obs.RunObserver
	eng  *engine

	nextWants    bool
	frame        [nFrameMetrics]float64
	faults       int
	emaIPS       float64
	peakIPS      float64
	emaOvershoot float64
	p99Ns        float64
	epochs       int
}

// ShouldSample implements obs.RunObserver: the monitor samples every
// epoch.
func (r *monitorRun) ShouldSample(epoch int) bool {
	r.nextWants = r.next != nil && r.next.ShouldSample(epoch)
	return true
}

// WantsEpochDetail implements obs.EpochDetailSampler: the monitor itself
// only reads scalar fields, so island/histogram aggregation is needed just
// on the downstream observer's own sampled epochs — and when the
// downstream is itself a detail sampler (the flight recorder samples every
// epoch but only keeps scalars), its refinement propagates up the chain.
func (r *monitorRun) WantsEpochDetail(epoch int) bool {
	if !r.nextWants {
		return false
	}
	if ds, ok := r.next.(obs.EpochDetailSampler); ok {
		return ds.WantsEpochDetail(epoch)
	}
	return true
}

// ObserveEpoch implements obs.RunObserver. Allocation-free on the steady
// path: the sketches and the metric frame are preallocated.
//
//odrl:hotpath
func (r *monitorRun) ObserveEpoch(ev *obs.EpochEvent) {
	r.epochs++

	// Raw frame slots, in rawMetrics order.
	r.frame[0] = ev.PowerW
	r.frame[1] = ev.BudgetW
	r.frame[2] = ev.IPS
	r.frame[3] = ev.OvershootW
	r.frame[4] = float64(ev.DecideNs)
	r.frame[5] = float64(r.faults)
	r.frame[6] = ev.MaxTempK

	r.h.Decide.Observe(float64(ev.DecideNs))
	r.h.Overshoot.Observe(ev.OvershootW)

	// Derived slots.
	overshootFrac := 0.0
	if ev.BudgetW > 0 {
		overshootFrac = ev.OvershootW / ev.BudgetW
	}
	if r.epochs == 1 {
		r.emaIPS = ev.IPS
		r.emaOvershoot = overshootFrac
	} else {
		r.emaIPS = ipsEMAAlpha*ev.IPS + (1-ipsEMAAlpha)*r.emaIPS
		r.emaOvershoot = overshootEMAAlpha*overshootFrac + (1-overshootEMAAlpha)*r.emaOvershoot
	}
	if r.emaIPS > r.peakIPS {
		r.peakIPS = r.emaIPS
	}
	ipsVsPeak := 1.0
	if r.peakIPS > 0 {
		ipsVsPeak = r.emaIPS / r.peakIPS
	}
	if r.epochs%p99RefreshEpochs == 1 {
		r.p99Ns = r.h.Decide.Quantile(0.99)
	}
	r.frame[len(rawMetrics)] = overshootFrac
	r.frame[len(rawMetrics)+1] = r.emaOvershoot
	r.frame[len(rawMetrics)+2] = ipsVsPeak
	r.frame[len(rawMetrics)+3] = r.p99Ns
	// learn.* slots: zero unless the run carries learning introspection
	// (the event fields are filled by obs/learn), so learn rules never fire
	// on unintrospected runs.
	r.frame[len(rawMetrics)+4] = ev.LearnTDEMA
	r.frame[len(rawMetrics)+5] = ev.LearnChurn
	r.frame[len(rawMetrics)+6] = ev.LearnConvergedFrac
	r.frame[len(rawMetrics)+7] = ev.LearnEpsilon

	r.eng.eval(&r.frame, ev.Epoch, ev.TimeS, r.fire)

	if r.nextWants {
		r.next.ObserveEpoch(ev)
	}
}

// fire records one fired alert and forwards it into the JSONL stream.
// RunHealth scalar fields are guarded by the monitor lock so Runs() stays
// race-free against active runs; firing is rare, so the lock never sits on
// the steady per-epoch path.
func (r *monitorRun) fire(ev *obs.AlertEvent) {
	r.m.mu.Lock()
	r.h.AlertCount++
	if len(r.h.Alerts) < maxKeptAlerts {
		r.h.Alerts = append(r.h.Alerts, *ev)
	}
	r.m.mu.Unlock()
	if ao, ok := r.next.(obs.AlertObserver); ok {
		ao.ObserveAlert(ev)
	}
}

// ObserveFault implements obs.FaultObserver.
func (r *monitorRun) ObserveFault(ev *obs.FaultEvent) {
	r.faults++
	r.m.mu.Lock()
	r.h.Faults++
	r.m.mu.Unlock()
	if fo, ok := r.next.(obs.FaultObserver); ok {
		fo.ObserveFault(ev)
	}
}

// ObserveLearn implements obs.LearnObserver by forwarding to the chained
// observer on its own sampling stride (learn events arrive on the monitor's
// every-epoch stride and immediately follow ObserveEpoch for the same
// epoch, so nextWants is current). The monitor's own view of the learn
// metrics comes through the epoch event's Learn* fields.
func (r *monitorRun) ObserveLearn(ev *obs.LearnEvent) {
	if !r.nextWants {
		return
	}
	if lo, ok := r.next.(obs.LearnObserver); ok {
		lo.ObserveLearn(ev)
	}
}

// ObserveConverged implements obs.LearnObserver (forwarded like faults).
func (r *monitorRun) ObserveConverged(ev *obs.ConvergedEvent) {
	if lo, ok := r.next.(obs.LearnObserver); ok {
		lo.ObserveConverged(ev)
	}
}

// End implements obs.RunObserver.
func (r *monitorRun) End() {
	r.m.mu.Lock()
	r.h.Epochs = r.epochs
	r.h.Done = true
	r.m.mu.Unlock()
	if r.next != nil {
		r.next.End()
	}
}
