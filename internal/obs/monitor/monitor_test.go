package monitor

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// recObserver records what reaches the downstream observer, sampling every
// stride-th epoch like the JSONL tracer does.
type recObserver struct {
	stride  int
	epochs  []int
	alerts  []obs.AlertEvent
	faults  int
	ended   bool
	sampled int
}

func (r *recObserver) BeginRun(obs.RunMeta) obs.RunObserver { return (*recRun)(r) }

type recRun recObserver

func (r *recRun) ShouldSample(epoch int) bool { return epoch%r.stride == 0 }
func (r *recRun) ObserveEpoch(ev *obs.EpochEvent) {
	r.epochs = append(r.epochs, ev.Epoch)
	r.sampled++
}
func (r *recRun) ObserveAlert(ev *obs.AlertEvent) { r.alerts = append(r.alerts, *ev) }
func (r *recRun) ObserveFault(*obs.FaultEvent)    { r.faults++ }
func (r *recRun) End()                            { r.ended = true }

func feedEpochs(ro obs.RunObserver, n int, fill func(e int, ev *obs.EpochEvent)) {
	for e := 0; e < n; e++ {
		if !ro.ShouldSample(e) {
			continue
		}
		ev := obs.EpochEvent{
			Epoch: e, TimeS: float64(e) * 1e-3,
			PowerW: 80, BudgetW: 90, IPS: 1e9, MaxTempK: 330, DecideNs: 5000,
		}
		if fill != nil {
			fill(e, &ev)
		}
		ro.ObserveEpoch(&ev)
	}
	ro.End()
}

var testMeta = obs.RunMeta{Controller: "odrl", Workload: "mix", Cores: 64, BudgetW: 90, EpochS: 1e-3, Seed: 1}

func TestWrapSeesEveryEpochAndHonoursNextStride(t *testing.T) {
	rec := &recObserver{stride: 4}
	m := New(Options{})
	ro := m.Wrap(rec).BeginRun(testMeta)
	feedEpochs(ro, 100, nil)

	runs := m.Runs()
	if len(runs) != 1 || runs[0].Epochs != 100 || !runs[0].Done {
		t.Fatalf("runs = %+v", runs)
	}
	if rec.sampled != 25 {
		t.Fatalf("downstream saw %d epochs, want 25 (its own stride)", rec.sampled)
	}
	for _, e := range rec.epochs {
		if e%4 != 0 {
			t.Fatalf("downstream received off-stride epoch %d", e)
		}
	}
	if !rec.ended {
		t.Fatal("End not forwarded")
	}
}

func TestDefaultRulesFireOnSustainedOvershoot(t *testing.T) {
	rec := &recObserver{stride: 1}
	m := New(Options{})
	ro := m.Wrap(rec).BeginRun(testMeta)
	// 30 epochs at 5% over budget: sustained-overshoot (>2% for 20) fires.
	feedEpochs(ro, 30, func(e int, ev *obs.EpochEvent) {
		ev.PowerW = 94.5
		ev.OvershootW = 4.5
	})

	h := m.Runs()[0]
	if h.AlertCount < 1 {
		t.Fatal("sustained overshoot fired no alert")
	}
	if h.Alerts[0].Rule != "sustained-overshoot" {
		t.Fatalf("first alert = %+v", h.Alerts[0])
	}
	if len(rec.alerts) != h.AlertCount {
		t.Fatalf("downstream got %d alerts, monitor fired %d", len(rec.alerts), h.AlertCount)
	}
	if m.AlertsFired() != h.AlertCount {
		t.Fatalf("AlertsFired = %d, want %d", m.AlertsFired(), h.AlertCount)
	}

	var buf bytes.Buffer
	if err := m.WriteAlertSummary(&buf); err != nil {
		t.Fatalf("WriteAlertSummary: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "sustained-overshoot") || !strings.Contains(out, "odrl") {
		t.Fatalf("summary missing alert row:\n%s", out)
	}
}

func TestNanTelemetryRuleFiresImmediately(t *testing.T) {
	m := New(Options{})
	ro := m.BeginRun(testMeta)
	feedEpochs(ro, 3, func(e int, ev *obs.EpochEvent) {
		if e == 1 {
			ev.PowerW = nan()
		}
	})
	h := m.Runs()[0]
	if h.AlertCount != 1 || h.Alerts[0].Rule != "nan-telemetry" || h.Alerts[0].Epoch != 1 {
		t.Fatalf("alerts = %+v", h.Alerts)
	}
}

func nan() float64 { var z float64; return z / z }

func TestCustomRulesReplaceDefaults(t *testing.T) {
	m := New(Options{Rules: []Rule{
		{Name: "cold-chip", Metric: MetricMaxTempK, Op: OpLT, Threshold: 1000, ForEpochs: 1},
	}})
	ro := m.BeginRun(testMeta)
	feedEpochs(ro, 25, func(e int, ev *obs.EpochEvent) { ev.OvershootW = 50 }) // would trip defaults
	h := m.Runs()[0]
	if h.AlertCount != 1 || h.Alerts[0].Rule != "cold-chip" {
		t.Fatalf("alerts = %+v (custom rules should replace defaults)", h.Alerts)
	}
}

// TestRunHealthCounts checks the per-run fault and epoch counts and the
// forwarding of faults to the chained observer.
func TestRunHealthCounts(t *testing.T) {
	rec := &recObserver{stride: 1}
	m := New(Options{})
	ro := m.Wrap(rec).BeginRun(testMeta)
	ro.(obs.FaultObserver).ObserveFault(&obs.FaultEvent{Epoch: 0, Kind: "core_dead"})
	feedEpochs(ro, 10, nil)

	h := m.Runs()[0]
	if h.Faults != 1 || h.Epochs != 10 || h.Decide.Count() != 10 {
		t.Fatalf("run health = faults %d epochs %d decide samples %d, want 1/10/10",
			h.Faults, h.Epochs, h.Decide.Count())
	}
	if rec.faults != 1 {
		t.Fatalf("chained observer saw %d faults, want 1", rec.faults)
	}
}

// TestMonitorConcurrentRuns drives several runs through one Monitor at
// once, each on its own goroutine and each firing alerts, while readers
// poll Runs and AlertsFired. Run under -race (make race-monitor) it is the
// monitor's concurrency gate; the final counts must be exact.
func TestMonitorConcurrentRuns(t *testing.T) {
	const (
		runs   = 6
		epochs = 400
	)
	m := New(Options{})
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro := m.Wrap(&recObserver{stride: 8}).BeginRun(testMeta)
			ro.(obs.FaultObserver).ObserveFault(&obs.FaultEvent{Epoch: 0, Kind: "core_dead"})
			// A NaN power reading every 100th epoch fires nan-telemetry
			// once per episode.
			feedEpochs(ro, epochs, func(e int, ev *obs.EpochEvent) {
				if e%100 == 50 {
					ev.PowerW = math.NaN()
				}
			})
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range m.Runs() {
					_ = h.Epochs + h.Faults + h.AlertCount + len(h.Alerts)
				}
				_ = m.AlertsFired()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	got := m.Runs()
	if len(got) != runs {
		t.Fatalf("%d runs recorded, want %d", len(got), runs)
	}
	for _, h := range got {
		if !h.Done || h.Epochs != epochs || h.Faults != 1 || h.AlertCount != epochs/100 {
			t.Fatalf("run %d: done %v epochs %d faults %d alerts %d, want true/%d/1/%d",
				h.ID, h.Done, h.Epochs, h.Faults, h.AlertCount, epochs, epochs/100)
		}
	}
	if n := m.AlertsFired(); n != runs*epochs/100 {
		t.Fatalf("AlertsFired = %d, want %d", n, runs*epochs/100)
	}
}

func TestWriteAlertSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Options{}).WriteAlertSummary(&buf); err != nil {
		t.Fatalf("WriteAlertSummary: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("summary with no runs wrote %q", buf.String())
	}
}
