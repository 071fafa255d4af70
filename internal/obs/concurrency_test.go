package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestTracerParallelEmitters hammers one Tracer with concurrent runs, each
// emitting epochs from its own goroutine, plus concurrent emitters within a
// single run. The JSONL stream must stay parseable with exact per-run
// accounting.
func TestTracerParallelEmitters(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{})

	const (
		runs      = 8
		epochs    = 200
		observers = 4 // concurrent emitters sharing one run's observer
	)
	var wg sync.WaitGroup
	for rr := 0; rr < runs; rr++ {
		rr := rr
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro := tr.BeginRun(RunMeta{Controller: "od-rl", Cores: 64, Seed: uint64(rr)})
			var ewg sync.WaitGroup
			for o := 0; o < observers; o++ {
				o := o
				ewg.Add(1)
				go func() {
					defer ewg.Done()
					for e := o; e < epochs; e += observers {
						if !ro.ShouldSample(e) {
							continue
						}
						ro.ObserveEpoch(&EpochEvent{Epoch: e, PowerW: 50, BudgetW: 55, DecideNs: 100})
					}
				}()
			}
			ewg.Wait()
			ro.End()
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("trace stream corrupted by concurrency: %v", err)
	}
	starts, ends := 0, 0
	sampledByRun := map[int64]int{}
	for _, rec := range recs {
		switch rec.Type {
		case "run_start":
			starts++
		case "epoch":
			sampledByRun[rec.Run]++
		case "run_end":
			ends++
			if rec.Epochs != epochs {
				t.Fatalf("run %d reports %d epochs, want %d", rec.Run, rec.Epochs, epochs)
			}
			if rec.Sampled != epochs {
				t.Fatalf("run %d reports %d sampled, want %d", rec.Run, rec.Sampled, epochs)
			}
			if got := sampledByRun[rec.Run]; got != epochs {
				t.Fatalf("run %d has %d epoch lines, want %d", rec.Run, got, epochs)
			}
		}
	}
	if starts != runs || ends != runs {
		t.Fatalf("got %d starts / %d ends, want %d each", starts, ends, runs)
	}
}
