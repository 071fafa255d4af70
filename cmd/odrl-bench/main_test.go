package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs/ledger"
)

// tinyArgs keep every test invocation small, so a flag the command ignored
// would cost seconds, not minutes.
var tinyArgs = []string{"-experiment", "T1", "-quick"}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(append(args, tinyArgs...), &out, &errw)
	return code, out.String(), errw.String()
}

// TestRunExit2 covers the malformed invocations: each exits 2 before any
// simulation work.
func TestRunExit2(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"malformed flag", []string{"-bogus"}, "flag provided but not defined"},
		{"snapshot without artifacts", []string{"-snapshot-every", "1"}, "needs -artifacts"},
		{"artifacts with trace-events", []string{"-artifacts", filepath.Join(dir, "art"), "-trace-events", filepath.Join(dir, "t.jsonl")}, "drop -trace-events"},
		{"two bench modes", []string{"-bench-monitor", filepath.Join(dir, "a.json"), "-bench-learn", filepath.Join(dir, "b.json")}, "-bench-learn, -bench-monitor are exclusive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(append([]string{"-no-ledger"}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if matches, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(matches) > 0 {
				t.Fatalf("malformed invocation wrote %v", matches)
			}
		})
	}
}

// TestRunTiny runs one small invocation end to end into a scratch ledger.
func TestRunTiny(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-ledger", dir)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "(T1 finished in") {
		t.Fatalf("unexpected stdout:\n%s", stdout)
	}
	recs, errs := ledger.Read(dir)
	if len(errs) > 0 || len(recs) != 1 || recs[0].Status != ledger.StatusOK {
		t.Fatalf("ledger records %+v, errors %v", recs, errs)
	}
}

// TestRunBenchOverheadQuick runs one overhead bench in quick mode end to
// end: the report is written, the gate is skipped, and the ledger record
// carries one overhead_frac bench point per case under the layer's kind.
func TestRunBenchOverheadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	code, stdout, stderr := runCLI("-bench-learn", path, "-quick", "-ledger", filepath.Join(dir, "ledger"))
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "ceiling") {
		t.Fatalf("quick mode ran the gate:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.OverheadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	recs, errs := ledger.Read(filepath.Join(dir, "ledger"))
	if len(errs) > 0 || len(recs) != 1 || recs[0].Status != ledger.StatusOK {
		t.Fatalf("ledger records %+v, errors %v", recs, errs)
	}
	got := map[string]bool{}
	for _, p := range recs[0].Bench {
		if p.Kind != "learn" || p.Metric != "overhead_frac" {
			t.Fatalf("unexpected bench point %+v", p)
		}
		got[p.Case] = true
	}
	for _, want := range []string{"epoch-loop-odrl-64c", "epoch-loop-odrl-16c"} {
		if !got[want] {
			t.Fatalf("ledger missing bench point for %s: %+v", want, recs[0].Bench)
		}
	}
	if len(rep.Cases) != 2 || len(recs[0].Bench) != 2 {
		t.Fatalf("report has %d cases, ledger %d bench points", len(rep.Cases), len(recs[0].Bench))
	}
}

// TestOverheadGate holds synthetic reports below, at and above a layer's
// ceiling: a case at the ceiling passes, one above fails the whole gate,
// and every case prints its own line.
func TestOverheadGate(t *testing.T) {
	flight := experiments.OverheadLayer{Name: "flight", MaxPct: experiments.FlightOverheadMaxPct}
	report := func(fracs ...float64) experiments.OverheadReport {
		var rep experiments.OverheadReport
		for _, f := range fracs {
			rep.Cases = append(rep.Cases, experiments.OverheadCase{OverheadFrac: f})
		}
		return rep
	}
	for _, tc := range []struct {
		name  string
		rep   experiments.OverheadReport
		code  int
		lines string
	}{
		{"below", report(0.0092, -0.004), 0,
			"flight overhead 0.92% (ceiling 3.0%)\nflight overhead -0.40% (ceiling 3.0%)\n"},
		{"at", report(0.03), 0,
			"flight overhead 3.00% (ceiling 3.0%)\n"},
		{"above", report(0.01, 0.0351), 1,
			"flight overhead 1.00% (ceiling 3.0%)\nflight overhead 3.51% exceeds 3.0% ceiling\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := overheadGate(&out, flight, tc.rep)
			if code != tc.code || (err != nil) != (tc.code != 0) {
				t.Fatalf("exit code %d, err %v; want %d", code, err, tc.code)
			}
			if out.String() != tc.lines {
				t.Fatalf("gate printed:\n%s\nwant:\n%s", out.String(), tc.lines)
			}
		})
	}
}
