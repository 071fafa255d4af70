package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/ledger"
	"repro/internal/scenario"
)

// tinyArgs keep every test invocation small, so a flag the command ignored
// would cost seconds, not minutes.
var tinyArgs = []string{"-controllers", "greedy", "-cores", "16", "-warmup", "0.2", "-measure", "0.5"}

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
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(append([]string{"-no-ledger"}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
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
	if !strings.Contains(stdout, "greedy") {
		t.Fatalf("unexpected stdout:\n%s", stdout)
	}
	recs, errs := ledger.Read(dir)
	if len(errs) > 0 || len(recs) != 1 || recs[0].Status != ledger.StatusOK {
		t.Fatalf("ledger records %+v, errors %v", recs, errs)
	}
}

// TestRunWriteSpec checks that -write-spec prints a spec that loads and is
// already in canonical form.
func TestRunWriteSpec(t *testing.T) {
	code, stdout, stderr := runCLI("-write-spec")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	spec, err := scenario.LoadBytes([]byte(stdout))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != stdout {
		t.Fatalf("-write-spec output is not canonical:\n%s\nwant:\n%s", stdout, canon)
	}
}

// TestRunMonitorSummaryToStderr checks the run-health summary goes to the
// stderr run was given, not the process's.
func TestRunMonitorSummaryToStderr(t *testing.T) {
	code, _, stderr := runCLI("-monitor", "-no-ledger")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "run-health summary:") {
		t.Fatalf("stderr missing the alert summary:\n%s", stderr)
	}
}
