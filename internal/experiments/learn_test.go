package experiments

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs/learn"
	"repro/internal/sim"
)

// TestTablesByteIdenticalWithLearn is the figure-level read-only gate for
// learning introspection: F1 and F18 must render byte-identical tables with
// the learn layer off and on (as a CLI would attach it, via
// sim.DefaultLearn), sequential and parallel.
func TestTablesByteIdenticalWithLearn(t *testing.T) {
	if sim.DefaultLearn != nil {
		t.Fatal("test requires a clean sim.DefaultLearn")
	}
	cases := []struct {
		id  string
		run Runner
	}{
		{"F1", F1PowerTrace},
		{"F18", F18FaultIntensity},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				cfg := Config{Quick: true, Workers: workers}
				resetSweepCache()
				sim.DefaultLearn = nil
				off, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resetSweepCache()
				sim.DefaultLearn = learn.New(learn.Options{})
				on, err := tc.run(cfg)
				sim.DefaultLearn = nil
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(off, on) {
					t.Fatalf("%s diverges with learning introspection on at workers=%d", tc.id, workers)
				}
				if !bytes.Equal(renderTable(t, off), renderTable(t, on)) {
					t.Fatalf("%s rendered bytes diverge with learning introspection on at workers=%d", tc.id, workers)
				}
			}
		})
	}
}

func TestF19LearningDynamics(t *testing.T) {
	tbl := mustRun(t, "F19")
	if len(tbl.Rows) != 2 {
		t.Fatalf("F19 has %d rows, want 2 learning controllers", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		// Every learning controller must report a live epoch count and a
		// parsable converged share.
		epochs, err := strconv.Atoi(r[1])
		if err != nil || epochs <= 0 {
			t.Fatalf("%s: bad epochs cell %q", r[0], r[1])
		}
		conv, err := strconv.ParseFloat(r[2], 64)
		if err != nil || conv < 0 || conv > 100 {
			t.Fatalf("%s: bad conv(%%) cell %q", r[0], r[2])
		}
		// conv-epochs(p50) is "-" when nothing converged, else a positive int.
		if r[3] != "-" {
			p50, err := strconv.Atoi(r[3])
			if err != nil || p50 <= 0 {
				t.Fatalf("%s: bad conv-epochs cell %q", r[0], r[3])
			}
		}
	}
}
