package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// renderTable renders a figure to the exact bytes the CLIs print.
func renderTable(t *testing.T, tbl Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTablesByteIdenticalWithMonitoring is the figure-level read-only gate:
// F1 and F18 must render byte-identical tables with the run-health monitor
// off and on (as a CLI would attach it, via sim.DefaultMonitor), sequential
// and parallel.
func TestTablesByteIdenticalWithMonitoring(t *testing.T) {
	if sim.DefaultMonitor != nil {
		t.Fatal("test requires a clean sim.DefaultMonitor")
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
				sim.DefaultMonitor = nil
				off, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resetSweepCache()
				mon := monitor.New(monitor.Options{})
				sim.DefaultMonitor = mon
				on, err := tc.run(cfg)
				sim.DefaultMonitor = nil
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(off, on) {
					t.Fatalf("%s diverges with monitoring on at workers=%d", tc.id, workers)
				}
				if !bytes.Equal(renderTable(t, off), renderTable(t, on)) {
					t.Fatalf("%s rendered bytes diverge with monitoring on at workers=%d", tc.id, workers)
				}
			}
		})
	}
}
