package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchOverheadReport smoke-checks every layer's overhead report: it
// must measure both legs of every case, stamp the host and produce valid
// JSON. It runs quick mode (2 reps, short legs) so the check stays fast
// under the race detector; the full 15-rep protocol and the ceiling gate
// live in `odrl-bench -bench-<layer>`, not here — wall-clock thresholds
// are too flaky for CI unit tests.
func TestBenchOverheadReport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	for _, layer := range OverheadLayers {
		t.Run(layer.Name, func(t *testing.T) {
			rep, err := BenchOverhead(layer, Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Cases) != 2 {
				t.Fatalf("got %d cases", len(rep.Cases))
			}
			for _, c := range rep.Cases {
				if c.OffS <= 0 || c.OnS <= 0 || c.Epochs <= 0 {
					t.Fatalf("unmeasured case %+v", c)
				}
			}
			if rep.GoVersion == "" || rep.HostCPUs <= 0 {
				t.Fatalf("missing host stamp: %+v", rep.Host)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"go_version"`, `"cases"`, `"name"`, `"epochs"`, `"off_s"`, `"on_s"`, `"overhead_frac"`} {
				if !bytes.Contains(buf.Bytes(), []byte(want)) {
					t.Fatalf("report JSON missing %s:\n%s", want, buf.String())
				}
			}
		})
	}
}

// TestOverheadReportSchema pins the report schema to the checked-in
// BENCH_<layer>.json files: each decodes into OverheadReport with no
// unknown field, and WriteJSON reproduces it byte for byte.
func TestOverheadReportSchema(t *testing.T) {
	for _, layer := range OverheadLayers {
		t.Run(layer.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+layer.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(want))
			dec.DisallowUnknownFields()
			var rep OverheadReport
			if err := dec.Decode(&rep); err != nil {
				t.Fatal(err)
			}
			if len(rep.Cases) != len(layer.cases) {
				t.Fatalf("report has %d cases, table row has %d", len(rep.Cases), len(layer.cases))
			}
			for i, c := range rep.Cases {
				if c.Name != layer.cases[i].name {
					t.Fatalf("case %d is %q, table row says %q", i, c.Name, layer.cases[i].name)
				}
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteJSON does not reproduce the checked-in report:\ngot:\n%s\nwant:\n%s", got.String(), want)
			}
		})
	}
}
