package instrument

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, 1)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCloseRestoresHooks checks that Start followed by Close leaves every
// sim default hook exactly as it found it, whichever instruments the flags
// turned on, so later in-process runs never inherit a finished session.
func TestCloseRestoresHooks(t *testing.T) {
	prevObs := obs.NewTracer(obs.NewWriterSink(&bytes.Buffer{}), obs.TracerOptions{})
	prevSpan := obs.SpanSink(&monitor.Timeline{})
	prevMon := monitor.New(monitor.Options{})
	prevLearn := learn.New(learn.Options{})
	sim.DefaultObserver, sim.DefaultSpanSink = prevObs, prevSpan
	sim.DefaultMonitor, sim.DefaultLearn = prevMon, prevLearn
	defer func() {
		sim.DefaultObserver, sim.DefaultSpanSink = nil, nil
		sim.DefaultMonitor, sim.DefaultLearn = nil, nil
	}()

	for name, args := range map[string][]string{
		"bare":                 {"-no-ledger"},
		"monitor":              {"-no-ledger", "-monitor"},
		"learn":                {"-no-ledger", "-learn"},
		"monitor+learn+ledger": {"-monitor", "-learn", "-ledger", t.TempDir()},
	} {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			s, err := Start("test", args, parse(t, args...), &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sim.DefaultMonitor != nil, slices.Contains(args, "-monitor"); got != want {
				t.Errorf("DefaultMonitor installed = %v, want %v", got, want)
			}
			if got, want := sim.DefaultLearn != nil, slices.Contains(args, "-learn"); got != want {
				t.Errorf("DefaultLearn installed = %v, want %v", got, want)
			}
			s.Close(nil)
			if sim.DefaultObserver != obs.Observer(prevObs) || sim.DefaultSpanSink != prevSpan ||
				sim.DefaultMonitor != prevMon || sim.DefaultLearn != prevLearn {
				t.Fatal("Close did not restore every sim default hook")
			}
			if stderr.Len() != 0 {
				t.Errorf("session with no runs wrote to stderr: %q", stderr.String())
			}
		})
	}
}

// TestStartExitCodes pins the exit-code contract: flag misuse is 2 and
// fails before any side effect, an unreadable input file is 1.
func TestStartExitCodes(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "art")
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"snapshot without artifacts", []string{"-snapshot-every", "1"}, 2, "needs -artifacts"},
		{"negative snapshot cadence", []string{"-learn", "-snapshot-every", "-1"}, 2, "negative snapshot cadence"},
		{"artifacts with trace-events", []string{"-artifacts", art, "-trace-events", filepath.Join(dir, "t.jsonl")}, 2, "drop -trace-events"},
		{"missing rules file", []string{"-alert-rules", filepath.Join(dir, "none.json")}, 1, "rules file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-no-ledger"}, tc.args...)
			_, err := Start("test", args, parse(t, args...), &bytes.Buffer{})
			if err == nil {
				t.Fatal("Start succeeded")
			}
			if got := ExitCode(err); got != tc.code {
				t.Errorf("ExitCode = %d, want %d (%v)", got, tc.code, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
			if sim.DefaultObserver != nil || sim.DefaultMonitor != nil || sim.DefaultLearn != nil {
				t.Error("failed Start installed a hook")
			}
		})
	}
	if _, err := os.Stat(art); !os.IsNotExist(err) {
		t.Errorf("misuse created the artifact directory: %v", err)
	}
}

// TestLedgerOnlyFlags covers the commands that take just -ledger and
// -no-ledger: Start still records the run and arms the flight recorder.
func TestLedgerOnlyFlags(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := &Flags{Ledger: ledger.RegisterFlags(fs)}
	if err := fs.Parse([]string{"-ledger", dir}); err != nil {
		t.Fatal(err)
	}
	s, err := Start("odrl-run", nil, f, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.DefaultObserver == nil || sim.DefaultSpanSink == nil {
		t.Error("ledger session did not arm the flight recorder hooks")
	}
	s.Close(nil)
	recs, errs := ledger.Read(dir)
	if len(errs) > 0 || len(recs) != 1 || recs[0].Tool != "odrl-run" {
		t.Fatalf("ledger records %+v, errors %v", recs, errs)
	}
}
