// Package instrument is the one place a command turns its observability
// flags into live instruments: the JSONL tracer, the run-health monitor,
// the learning-introspection layer and the run-ledger session with its
// flight recorder. Register declares the shared flag
// family; Start opens what the flags ask for and installs it as the sim
// package's default hooks; Session.Close undoes all of it.
package instrument

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// Flags holds the parsed shared instrumentation flags.
type Flags struct {
	TraceEvents   string
	TraceEvery    int
	Monitor       bool
	AlertRules    string
	Perfetto      string
	Learn         bool
	SnapshotEvery int
	Artifacts     string
	Ledger        *ledger.Flags
}

// Register declares the shared flag family on fs. traceEveryDefault is the
// command's -trace-every default: commands with long runs sample sparser.
func Register(fs *flag.FlagSet, traceEveryDefault int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceEvents, "trace-events", "", "write structured JSONL epoch events for every run to this file ('-' for stdout)")
	fs.IntVar(&f.TraceEvery, "trace-every", traceEveryDefault, "sample every Nth epoch in -trace-events output")
	fs.BoolVar(&f.Monitor, "monitor", false, "enable the run-health monitor: decide-latency and overshoot quantiles, claim-invariant alerts, summary on exit")
	fs.StringVar(&f.AlertRules, "alert-rules", "", "alert rules JSON file (implies -monitor; default rules derive from each run's budget)")
	fs.StringVar(&f.Perfetto, "perfetto", "", "write controller phase spans as Perfetto trace-event JSON to this file on exit (implies -monitor)")
	fs.BoolVar(&f.Learn, "learn", false, "enable learning introspection: per-agent TD-error/epsilon/churn telemetry, convergence detection, summary on exit")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", 0, "write a content-addressed policy snapshot every N control epochs (0 = only at run end; requires -artifacts)")
	fs.StringVar(&f.Artifacts, "artifacts", "", "record every run into this directory: full JSONL trace plus policy snapshots, the layout odrl-inspect reads (implies -learn)")
	f.Ledger = ledger.RegisterFlags(fs)
	return f
}

// usageError marks a Start error caused by a malformed flag combination
// rather than by the environment.
type usageError struct{ error }

// ExitCode is the process exit code for a Start error: 2 for misuse,
// 1 for anything else.
func ExitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// Session is one command's instrumentation, live between Start and Close.
type Session struct {
	// Ledger is the run-ledger session (nil with -no-ledger).
	Ledger *ledger.CLI

	stderr   io.Writer
	tracer   *obs.Tracer
	monitor  *monitor.Monitor
	perfetto string
	learn    *learn.Layer

	prevObserver obs.Observer
	prevSpanSink obs.SpanSink
	prevMonitor  *monitor.Monitor
	prevLearn    *learn.Layer
}

// Start validates the flags, opens every instrument they ask for, starts
// the ledger session for tool, and installs the sim default hooks so that
// every run the command builds is observed as monitor -> flight recorder
// -> tracer. Misuse (an -artifacts directory with -trace-events, or
// -snapshot-every without -artifacts) fails before any side effect;
// ExitCode tells it apart from a start failure. Close writes the
// end-of-run summaries to stderr.
func Start(tool string, args []string, f *Flags, stderr io.Writer) (*Session, error) {
	learnOn := f.Learn || f.Artifacts != ""
	switch {
	case f.Artifacts != "" && f.TraceEvents != "":
		return nil, usageError{fmt.Errorf("learn: -artifacts records its own trace (%s); drop -trace-events",
			filepath.Join(f.Artifacts, "trace.jsonl"))}
	case f.SnapshotEvery > 0 && f.Artifacts == "":
		return nil, usageError{errors.New("learn: -snapshot-every needs -artifacts (snapshots are files)")}
	case learnOn && f.SnapshotEvery < 0:
		return nil, usageError{fmt.Errorf("learn: negative snapshot cadence %d", f.SnapshotEvery)}
	}
	// An artifact directory records its trace inside itself at every epoch:
	// the complete-run layout odrl-inspect consumes.
	tracePath, traceEvery := f.TraceEvents, f.TraceEvery
	if f.Artifacts != "" {
		if err := os.MkdirAll(f.Artifacts, 0o755); err != nil {
			return nil, usageError{fmt.Errorf("learn: artifacts: %w", err)}
		}
		tracePath, traceEvery = filepath.Join(f.Artifacts, "trace.jsonl"), 1
	}
	monitorOn := f.Monitor || f.AlertRules != "" || f.Perfetto != ""
	var rules []monitor.Rule
	if f.AlertRules != "" {
		rf, err := os.Open(f.AlertRules)
		if err != nil {
			return nil, fmt.Errorf("monitor: rules file: %w", err)
		}
		rules, err = monitor.LoadRules(rf)
		rf.Close() //nolint:errcheck // read-only
		if err != nil {
			return nil, err
		}
	}

	s := &Session{stderr: stderr, perfetto: f.Perfetto}
	if tracePath != "" {
		var w io.Writer
		if tracePath == "-" {
			// Hide stdout's Closer so Close never shuts the process stream.
			w = struct{ io.Writer }{os.Stdout}
		} else {
			tf, err := os.Create(tracePath)
			if err != nil {
				return nil, fmt.Errorf("obs: trace file: %w", err)
			}
			w = tf
		}
		s.tracer = obs.NewTracer(obs.NewWriterSink(w), obs.TracerOptions{Every: traceEvery})
	}
	if monitorOn {
		s.monitor = monitor.New(monitor.Options{Rules: rules})
	}
	if learnOn {
		s.learn = learn.New(learn.Options{SnapshotEvery: f.SnapshotEvery, ArtifactDir: f.Artifacts})
	}
	s.Ledger = f.Ledger.Start(tool, args)

	s.prevObserver, s.prevSpanSink = sim.DefaultObserver, sim.DefaultSpanSink
	s.prevMonitor, s.prevLearn = sim.DefaultMonitor, sim.DefaultLearn
	var tracer obs.Observer
	if s.tracer != nil {
		tracer = s.tracer
	}
	sim.DefaultObserver = s.Ledger.WrapObserver(tracer)
	sim.DefaultSpanSink = s.Ledger.SpanSink()
	sim.DefaultMonitor, sim.DefaultLearn = s.monitor, s.learn
	return s, nil
}

// Close ends the session: it finishes the ledger record with runErr,
// restores every sim default hook Start replaced, writes the learn and
// monitor summaries (and the Perfetto file) to the Start stderr, and
// closes the tracer. Instrument failures are reported to stderr as
// warnings, never as the run's failure: bookkeeping must not take down
// the work it documents.
func (s *Session) Close(runErr error) {
	s.Ledger.Finish(runErr)
	sim.DefaultObserver, sim.DefaultSpanSink = s.prevObserver, s.prevSpanSink
	sim.DefaultMonitor, sim.DefaultLearn = s.prevMonitor, s.prevLearn

	var errs []error
	if s.learn != nil {
		errs = append(errs, s.writeLearnSummary())
	}
	if s.monitor != nil {
		if s.perfetto != "" {
			errs = append(errs, s.writePerfetto())
		}
		errs = append(errs, s.monitor.WriteAlertSummary(s.stderr))
	}
	if s.tracer != nil {
		errs = append(errs, s.tracer.Close())
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(s.stderr, "warning:", err) //nolint:errcheck // best-effort diagnostic
	}
}

// writeLearnSummary renders one convergence line per run and surfaces the
// first artifact-writing error.
func (s *Session) writeLearnSummary() error {
	var first error
	for _, r := range s.learn.Runs() {
		sum := r.Summarize()
		if sum.Epochs == 0 {
			continue
		}
		fmt.Fprintf(s.stderr, "learn: run %d (%s): %d/%d agents converged", //nolint:errcheck // best-effort summary
			sum.Run, sum.Meta.Controller, sum.Converged, sum.LiveAgents)
		if sum.Converged > 0 {
			fmt.Fprintf(s.stderr, " (median %d epochs)", sum.EpochsToConvergeP50) //nolint:errcheck // best-effort summary
		}
		fmt.Fprintf(s.stderr, ", td_ema %.4f, churn %.4f, coverage %.2f\n", //nolint:errcheck // best-effort summary
			sum.TDErrEMA, sum.Churn, sum.Coverage)
		if err := r.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Session) writePerfetto() error {
	f, err := os.Create(s.perfetto)
	if err == nil {
		err = s.monitor.Timeline().WriteTraceJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("monitor: perfetto trace: %w", err)
	}
	return nil
}
