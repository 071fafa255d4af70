// Command odrl-inspect reads recorded run directories (the -artifacts
// layout the other commands write: trace.jsonl plus content-addressed
// policy snapshots) and reports learning dynamics: curves, per-agent
// convergence, and — given two runs — a cross-run diff down to per-state
// greedy-action disagreement and the first epoch the policies diverged.
//
// Usage:
//
//	odrl -learn -artifacts runA -seed 1   # record
//	odrl -learn -artifacts runB -seed 2
//	odrl-inspect runA                     # single-run learning report
//	odrl-inspect runA runB                # cross-run diff
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/learn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runData is everything odrl-inspect distils from one recorded run
// directory.
type runData struct {
	dir     string
	id      int64
	meta    obs.RunMeta
	epochs  int // total epochs per run_end (0 when the record is missing)
	sampled int
	learn   []obs.LearnEvent
	conv    []obs.ConvergedEvent
	snaps   []learn.LoadedSnap
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a run directory could not be read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID = fs.Int64("run", 0, "trace run ID to inspect when a directory holds several (default: the first recorded)")
		width = fs.Int("width", 60, "learning-curve sparkline width in characters")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: odrl-inspect [flags] RUNDIR [RUNDIR2]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := fs.Args()
	if len(dirs) < 1 || len(dirs) > 2 {
		fs.Usage()
		return 2
	}
	if *width < 8 {
		fmt.Fprintln(stderr, "odrl-inspect: -width must be at least 8")
		return 2
	}

	runs := make([]*runData, len(dirs))
	for i, dir := range dirs {
		rd, err := loadRun(dir, *runID)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-inspect:", err)
			return 1
		}
		runs[i] = rd
	}

	report(stdout, runs[0], *width)
	if len(runs) == 2 {
		fmt.Fprintln(stdout)
		report(stdout, runs[1], *width)
		fmt.Fprintln(stdout)
		diff(stdout, runs[0], runs[1])
	}
	return 0
}

// loadRun reads one artifact directory: the JSONL trace plus any policy
// snapshot chain recorded alongside it.
func loadRun(dir string, wantID int64) (*runData, error) {
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w (is this an -artifacts directory?)", dir, err)
	}
	recs, err := obs.ReadRecords(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}

	rd := &runData{dir: dir, id: wantID}
	if rd.id == 0 {
		for _, r := range recs {
			if r.Type == "run_start" {
				rd.id = r.Run
				break
			}
		}
	}
	if rd.id == 0 {
		return nil, fmt.Errorf("%s: trace holds no run_start record", dir)
	}
	found := false
	for _, r := range recs {
		if r.Run != rd.id {
			continue
		}
		switch r.Type {
		case "run_start":
			rd.meta = r.Meta
			found = true
		case "learn":
			rd.learn = append(rd.learn, r.Learn)
		case "converged":
			rd.conv = append(rd.conv, r.Conv)
		case "run_end":
			rd.epochs, rd.sampled = r.Epochs, r.Sampled
		}
	}
	if !found {
		return nil, fmt.Errorf("%s: no run %d in trace", dir, rd.id)
	}

	// Snapshot chains live in run-<id>-<controller> subdirectories written
	// by the learn layer; the layer's run counter matches the tracer's when
	// both observe the same sequence of runs, so prefer an exact id match
	// and fall back to a lone directory.
	snapDirs, err := filepath.Glob(filepath.Join(dir, "run-*"))
	if err == nil && len(snapDirs) > 0 {
		sort.Strings(snapDirs)
		chosen := ""
		prefix := filepath.Join(dir, fmt.Sprintf("run-%d-", rd.id))
		for _, sd := range snapDirs {
			if strings.HasPrefix(sd, prefix) {
				chosen = sd
				break
			}
		}
		if chosen == "" && len(snapDirs) == 1 {
			chosen = snapDirs[0]
		}
		if chosen != "" {
			snaps, err := learn.LoadSnapshots(chosen)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", chosen, err)
			}
			rd.snaps = snaps
		}
	}
	return rd, nil
}

// report prints one run's learning story.
func report(w io.Writer, rd *runData, width int) {
	m := rd.meta
	fmt.Fprintf(w, "== %s: run %d ==\n", rd.dir, rd.id)
	fmt.Fprintf(w, "controller %s, workload %s, %d cores, budget %g W, seed %d\n",
		m.Controller, m.Workload, m.Cores, m.BudgetW, m.Seed)
	if rd.epochs > 0 {
		fmt.Fprintf(w, "epochs: %d measured, %d sampled, %d learn events\n",
			rd.epochs, rd.sampled, len(rd.learn))
	}
	if len(rd.learn) == 0 {
		fmt.Fprintln(w, "no learning telemetry in trace (recorded without -learn?)")
		return
	}

	fmt.Fprintf(w, "\nlearning curves (%d samples):\n", len(rd.learn))
	for _, c := range []struct {
		name string
		get  func(*obs.LearnEvent) float64
	}{
		{"td_ema", func(e *obs.LearnEvent) float64 { return e.TDErrEMA }},
		{"churn", func(e *obs.LearnEvent) float64 { return e.Churn }},
		{"converged", func(e *obs.LearnEvent) float64 { return e.ConvergedFrac }},
		{"coverage", func(e *obs.LearnEvent) float64 { return e.Coverage }},
		{"epsilon", func(e *obs.LearnEvent) float64 { return e.Epsilon }},
	} {
		vals := make([]float64, len(rd.learn))
		for i := range rd.learn {
			vals[i] = c.get(&rd.learn[i])
		}
		fmt.Fprintf(w, "  %-10s %s  first %.4g  last %.4g\n",
			c.name, sparkline(vals, width), vals[0], vals[len(vals)-1])
	}

	last := rd.learn[len(rd.learn)-1]
	fmt.Fprintf(w, "\nconvergence: %d agents converged (%.1f%% of chip at last sample)\n",
		len(rd.conv), 100*last.ConvergedFrac)
	if len(rd.conv) > 0 {
		epochsTo := make([]int, len(rd.conv))
		for i, cv := range rd.conv {
			epochsTo[i] = cv.EpochsToConverge
		}
		sort.Ints(epochsTo)
		fmt.Fprintf(w, "  epochs-to-converge: p50 %d, min %d, max %d\n",
			epochsTo[len(epochsTo)/2], epochsTo[0], epochsTo[len(epochsTo)-1])
		n := len(rd.conv)
		if n > 8 {
			n = 8
		}
		for _, cv := range rd.conv[:n] {
			fmt.Fprintf(w, "  core %3d at epoch %6d (%d learning epochs, td_ema %.4f, epsilon %.3f)\n",
				cv.Core, cv.Epoch, cv.EpochsToConverge, cv.TDErrEMA, cv.Epsilon)
		}
		if len(rd.conv) > n {
			fmt.Fprintf(w, "  ... and %d more\n", len(rd.conv)-n)
		}
	}

	if len(rd.snaps) > 0 {
		first, lastS := rd.snaps[0], rd.snaps[len(rd.snaps)-1]
		fmt.Fprintf(w, "\npolicy snapshots: %d (epochs %d..%d), shape %dx%dx%d, final %s\n",
			len(rd.snaps), first.Epoch, lastS.Epoch,
			lastS.Cores, lastS.States, lastS.Actions, lastS.Hash[:12])
	} else {
		fmt.Fprintln(w, "\npolicy snapshots: none recorded")
	}
}

// diff prints the cross-run comparison: final metric deltas, convergence
// deltas, per-state greedy disagreement and the first diverging snapshot.
func diff(w io.Writer, a, b *runData) {
	fmt.Fprintf(w, "== diff: %s vs %s ==\n", a.dir, b.dir)
	if len(a.learn) > 0 && len(b.learn) > 0 {
		la, lb := a.learn[len(a.learn)-1], b.learn[len(b.learn)-1]
		fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "final metric", "A", "B", "delta")
		for _, row := range []struct {
			name string
			va   float64
			vb   float64
		}{
			{"td_ema", la.TDErrEMA, lb.TDErrEMA},
			{"td_p99", la.TDErrP99, lb.TDErrP99},
			{"churn", la.Churn, lb.Churn},
			{"greedy_frac", la.GreedyFrac, lb.GreedyFrac},
			{"converged", la.ConvergedFrac, lb.ConvergedFrac},
			{"coverage", la.Coverage, lb.Coverage},
			{"epsilon", la.Epsilon, lb.Epsilon},
			{"q_spread", la.QSpread, lb.QSpread},
		} {
			fmt.Fprintf(w, "%-14s %12.5g %12.5g %+12.5g\n", row.name, row.va, row.vb, row.vb-row.va)
		}
	}
	fmt.Fprintf(w, "converged agents: A %d, B %d\n", len(a.conv), len(b.conv))

	switch {
	case len(a.snaps) == 0 || len(b.snaps) == 0:
		fmt.Fprintln(w, "policy diff: skipped (both runs need snapshots)")
	case a.snaps[len(a.snaps)-1].Cores != b.snaps[len(b.snaps)-1].Cores ||
		a.snaps[len(a.snaps)-1].States != b.snaps[len(b.snaps)-1].States ||
		a.snaps[len(a.snaps)-1].Actions != b.snaps[len(b.snaps)-1].Actions:
		fmt.Fprintln(w, "policy diff: skipped (snapshot shapes differ)")
	default:
		fa, fb := a.snaps[len(a.snaps)-1], b.snaps[len(b.snaps)-1]
		disagree, perCore := greedyDisagreement(fa, fb)
		total := fa.Cores * fa.States
		fmt.Fprintf(w, "greedy-action disagreement (final policies): %d/%d core-states (%.1f%%)\n",
			disagree, total, 100*float64(disagree)/float64(total))
		if disagree > 0 {
			worst := 0
			for c := range perCore {
				if perCore[c] > perCore[worst] {
					worst = c
				}
			}
			fmt.Fprintf(w, "  most divergent core: %d (%d/%d states)\n", worst, perCore[worst], fa.States)
		}
		if e, ok := firstDivergence(a.snaps, b.snaps); ok {
			fmt.Fprintf(w, "first recorded policy divergence: epoch %d\n", e)
		} else {
			fmt.Fprintln(w, "policies identical at every common snapshot epoch")
		}
	}
}

// greedyDisagreement counts (core, state) cells whose argmax action
// differs between two equally shaped policies; ties resolve to the lowest
// action index on both sides, so a disagreement is a real preference flip.
func greedyDisagreement(a, b learn.LoadedSnap) (int, []int) {
	perCore := make([]int, a.Cores)
	total := 0
	per := a.States * a.Actions
	for c := 0; c < a.Cores; c++ {
		for s := 0; s < a.States; s++ {
			off := c*per + s*a.Actions
			if argmax(a.Q[off:off+a.Actions]) != argmax(b.Q[off:off+b.Actions]) {
				perCore[c]++
				total++
			}
		}
	}
	return total, perCore
}

func argmax(q []float64) int {
	best := 0
	for i, v := range q {
		if v > q[best] {
			best = i
		}
	}
	return best
}

// firstDivergence walks both snapshot chains over their common epochs and
// returns the first epoch whose stored policies differ. Content addressing
// makes the comparison a hash check.
func firstDivergence(a, b []learn.LoadedSnap) (int64, bool) {
	ah := make(map[int64]string, len(a))
	for _, s := range a {
		ah[s.Epoch] = s.Hash
	}
	bh := make(map[int64]string, len(b))
	var common []int64
	for _, s := range b {
		if _, ok := ah[s.Epoch]; ok {
			common = append(common, s.Epoch)
			bh[s.Epoch] = s.Hash
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })
	for _, e := range common {
		if ah[e] != bh[e] {
			return e, true
		}
	}
	return 0, false
}

// sparkline renders vals as a fixed-width block-character strip, bucketing
// by mean. A flat series renders as a run of middle blocks.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return strings.Repeat(" ", width)
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if len(vals) < width {
		width = len(vals)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		from := i * len(vals) / width
		to := (i + 1) * len(vals) / width
		if to <= from {
			to = from + 1
		}
		sum := 0.0
		for _, v := range vals[from:to] {
			sum += v
		}
		mean := sum / float64(to-from)
		idx := len(blocks) / 2
		if hi > lo {
			idx = int((mean - lo) / (hi - lo) * float64(len(blocks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
		}
		out[i] = blocks[idx]
	}
	return string(out)
}
