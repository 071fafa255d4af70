package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// tiny is a configuration that runs every workload at a small fraction of
// its benchmark size, for a window shorter than one pass.
func tiny(t *testing.T) config {
	return config{
		seed:            defaultSeed,
		seconds:         0.01,
		scale:           0.02,
		workers:         2,
		minTracedEpochs: 1,
		spansDir:        t.TempDir(),
		log:             io.Discard,
	}
}

// benchmarkFile is the part of BENCHMARK.json the report must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// reportLine renders a result and returns its printed lines and the parsed
// last line.
func reportLine(t *testing.T, res result) (string, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return buf.String(), last
}

// checkMetrics asserts that the report prints every named metric with its
// unit, both as a text line and in the JSON line, and nothing else.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	text, last := reportLine(t, res)
	ms := last["metrics"].(map[string]any)
	if len(ms) != len(want) {
		t.Errorf("JSON line has %d metrics, want %d", len(ms), len(want))
	}
	for _, m := range want {
		v, ok := ms[m.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing from the JSON line", m.Name)
			continue
		}
		if v["unit"] != m.Unit {
			t.Errorf("metric %s unit %v, want %s", m.Name, v["unit"], m.Unit)
		}
		if !strings.Contains(text, m.Name) {
			t.Errorf("metric %s missing from the text lines", m.Name)
		}
	}
	if !strings.Contains(text, "failed_frac") || !strings.Contains(text, " ratio\n") {
		t.Error("failed_frac is not printed with its unit")
	}
	if last["correct"] != true || last["failed"].(float64) != 0 || last["attempted"].(float64) < 1 {
		t.Errorf("check line %v, want correct with no failures", last)
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
		if dg, err := recordedDigest(w.Name); err != nil || dg == "" {
			t.Errorf("no recorded digest for %s (%v)", w.Name, err)
		}
	}
}

func TestEndToEndPrintsEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, tiny(t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, f.EndToEnd)
			if text, _ := reportLine(t, res); !strings.Contains(text, "core_epochs_per_s") || !strings.Contains(text, "core-epoch/s\n") {
				t.Error("core_epochs_per_s is not printed with its unit")
			}
		})
	}
}

// The traced run drives the epoch loop itself at Workers=1; its digest must
// equal the untraced run's, so a clean traced run also proves that.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTraced(w, tiny(t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, f.PerLayer)
		})
	}
}

func TestCorruptDigestFailsEveryPass(t *testing.T) {
	w, err := workloadByName("observed-16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny(t)
	cfg.want = "0000000000000000"
	for name, runner := range map[string]func(workload, config) (result, error){
		"end-to-end": runEndToEnd, "traced": runTraced,
	} {
		res, err := runner(w, cfg)
		if err == nil {
			_, last := reportLine(t, res)
			if last["correct"] != false {
				t.Errorf("%s: correct = %v with a corrupt recorded digest", name, last["correct"])
			}
		}
		if res.failed == 0 || res.failed != res.attempted {
			t.Errorf("%s: %d of %d passes failed, want all", name, res.failed, res.attempted)
		}
	}
}

func TestDigestCheck(t *testing.T) {
	d := digestCheck{}
	for _, dg := range []string{"a", "a", "b", "a"} {
		d.add(dg)
	}
	if d.bad != 1 {
		t.Errorf("bad = %d, want 1 (one pass disagreed with the first)", d.bad)
	}
}

func TestSelfTime(t *testing.T) {
	sp := newSpans(true, "test", 4)
	a, b := sp.name("a"), sp.name("b")
	sp.list = []span{
		{name: a, parent: -1, start: 0, end: 100},
		{name: b, parent: 0, start: 10, end: 30},
		{name: b, parent: 0, start: 40, end: 70},
	}
	if got := sp.selfTotal("a"); got != 50 {
		t.Errorf("self time of a = %v, want 50", got)
	}
	if got := sp.total("b"); got != 50 {
		t.Errorf("total of b = %v, want 50", got)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "odrl-1024", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// The repository's lint target covers only the root module, so the
// benchmark runs the same analyzers over itself.
func TestOdrlVetClean(t *testing.T) {
	pkgs, err := analysis.NewLoader(".").Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Vet(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Error(d)
	}
}
