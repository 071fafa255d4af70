package learn

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// fastDetector converges quickly so tests stay short.
func fastDetector() Detector {
	return Detector{StableEpochs: 3, TDThreshold: 0.1, EMAAlpha: 0.5}
}

// push feeds one synthetic epoch: per-core (tdError, greedyChanged) pairs.
func push(r *Run, cores []obs.LearnCoreSample) {
	r.ObserveLearnEpoch(cores)
}

func sample(td float64, churned bool) obs.LearnCoreSample {
	return obs.LearnCoreSample{
		TDError: td, Epsilon: 0.1, QSpread: 1.0,
		GreedyChanged: churned, ActedGreedy: !churned,
		VisitedStates: 5, States: 10,
	}
}

func TestDetectorConvergence(t *testing.T) {
	l := New(Options{Detector: fastDetector()})
	r := l.BeginRun(obs.RunMeta{Controller: "od-rl"}, nil, 0)

	// Core 0 is quiet from the start; core 1 keeps flipping its greedy
	// action, so only core 0 may converge.
	for e := 0; e < 6; e++ {
		push(r, []obs.LearnCoreSample{sample(0.01, false), sample(0.5, true)})
	}

	var events []obs.ConvergedEvent
	r.DrainConverged(func(ev *obs.ConvergedEvent) { events = append(events, *ev) })
	if len(events) != 1 {
		t.Fatalf("got %d converged events, want 1", len(events))
	}
	if events[0].Core != 0 {
		t.Fatalf("converged core = %d, want 0", events[0].Core)
	}
	// StableEpochs=3: stableFor hits 3 at epoch 3.
	if events[0].EpochsToConverge != 3 {
		t.Fatalf("EpochsToConverge = %d, want 3", events[0].EpochsToConverge)
	}

	s := r.Summarize()
	if s.Converged != 1 || s.LiveAgents != 2 {
		t.Fatalf("summary converged/live = %d/%d, want 1/2", s.Converged, s.LiveAgents)
	}
	if s.ConvergedFrac != 0.5 {
		t.Fatalf("ConvergedFrac = %g, want 0.5", s.ConvergedFrac)
	}
	if s.EpochsToConvergeP50 != 3 {
		t.Fatalf("median epochs-to-converge = %d, want 3", s.EpochsToConvergeP50)
	}

	// A second drain must be empty (events fire once).
	r.DrainConverged(func(*obs.ConvergedEvent) { t.Fatal("event drained twice") })

	at := r.ConvergedEpochs()
	if at[0] != 3 || at[1] != -1 {
		t.Fatalf("ConvergedEpochs = %v, want [3 -1]", at)
	}
}

func TestHighTDErrorBlocksConvergence(t *testing.T) {
	l := New(Options{Detector: fastDetector()})
	r := l.BeginRun(obs.RunMeta{}, nil, 0)
	// Greedy-stable but with TD errors far above threshold: never converges.
	for e := 0; e < 20; e++ {
		push(r, []obs.LearnCoreSample{sample(5.0, false)})
	}
	r.DrainConverged(func(*obs.ConvergedEvent) { t.Fatal("converged despite high TD error") })
	if s := r.Summarize(); s.Converged != 0 {
		t.Fatalf("converged = %d, want 0", s.Converged)
	}
}

func TestDeadCoresExcluded(t *testing.T) {
	l := New(Options{Detector: fastDetector()})
	r := l.BeginRun(obs.RunMeta{}, nil, 0)
	for e := 0; e < 6; e++ {
		push(r, []obs.LearnCoreSample{sample(0.01, false), {Dead: true}})
	}
	s := r.Summarize()
	if s.LiveAgents != 1 {
		t.Fatalf("live agents = %d, want 1", s.LiveAgents)
	}
	if s.ConvergedFrac != 1.0 {
		t.Fatalf("ConvergedFrac = %g, want 1 (dead core excluded)", s.ConvergedFrac)
	}
	if s.Epsilon != 0.1 {
		t.Fatalf("epsilon mean = %g polluted by dead core", s.Epsilon)
	}
}

func TestFillEventAndLearnEvent(t *testing.T) {
	l := New(Options{Detector: fastDetector()})
	islandOf := []int32{0, 0, 1, 1}
	r := l.BeginRun(obs.RunMeta{}, islandOf, 2)

	var ev obs.EpochEvent
	r.FillEvent(&ev)
	if ev.LearnTDEMA != 0 || ev.LearnEpsilon != 0 {
		t.Fatal("FillEvent before first epoch must leave omitempty zeros")
	}

	// Island 0 quiet, island 1 noisy.
	push(r, []obs.LearnCoreSample{
		sample(0.1, false), sample(0.1, false),
		sample(0.9, true), sample(0.9, true),
	})

	r.FillEvent(&ev)
	if ev.LearnTDEMA != 0.5 { // mean |δ| of first epoch seeds the EMA
		t.Fatalf("LearnTDEMA = %g, want 0.5", ev.LearnTDEMA)
	}
	if ev.LearnChurn != 0.5 {
		t.Fatalf("LearnChurn = %g, want 0.5", ev.LearnChurn)
	}
	if ev.LearnEpsilon != 0.1 {
		t.Fatalf("LearnEpsilon = %g, want 0.1", ev.LearnEpsilon)
	}

	var le obs.LearnEvent
	r.FillLearnEvent(&le, false)
	if le.IslandTDEMA != nil {
		t.Fatal("IslandTDEMA attached without detail")
	}
	if le.Coverage != 0.5 {
		t.Fatalf("Coverage = %g, want 0.5", le.Coverage)
	}
	if le.GreedyFrac != 0.5 {
		t.Fatalf("GreedyFrac = %g, want 0.5", le.GreedyFrac)
	}
	r.FillLearnEvent(&le, true)
	if len(le.IslandTDEMA) != 2 || le.IslandTDEMA[0] != 0.1 || le.IslandTDEMA[1] != 0.9 {
		t.Fatalf("IslandTDEMA = %v, want [0.1 0.9]", le.IslandTDEMA)
	}
	if le.TDErrP99 <= 0 {
		t.Fatalf("TDErrP99 = %g, want > 0", le.TDErrP99)
	}
}

// TestLearnStoreRace is the race hammer: concurrent run-list readers and
// Summarize calls while the write path streams epochs. Run under
// -race (the race-learn make target).
func TestLearnStoreRace(t *testing.T) {
	l := New(Options{Detector: fastDetector()})
	r := l.BeginRun(obs.RunMeta{Controller: "od-rl"}, []int32{0, 0, 0, 0}, 1)

	const epochs = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, lr := range l.Runs() {
					_ = lr.Summarize()
				}
				_ = r.ConvergedEpochs()
				var ev obs.EpochEvent
				r.FillEvent(&ev)
			}
		}()
	}

	buf := make([]obs.LearnCoreSample, 4)
	for e := 0; e < epochs; e++ {
		for i := range buf {
			buf[i] = sample(float64(e%7)/10, e%13 == 0)
		}
		r.ObserveLearnEpoch(buf)
		r.DrainConverged(func(*obs.ConvergedEvent) {})
	}
	close(stop)
	wg.Wait()
	if s := r.Summarize(); s.Epochs != epochs {
		t.Fatalf("epochs = %d, want %d", s.Epochs, epochs)
	}
}

func TestMedianConverged(t *testing.T) {
	if got := medianConverged([]int{-1, -1}); got != 0 {
		t.Fatalf("median of none = %d, want 0", got)
	}
	if got := medianConverged([]int{9, -1, 3, 7}); got != 7 {
		t.Fatalf("median = %d, want 7", got)
	}
}
