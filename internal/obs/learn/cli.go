package learn

import (
	"encoding/json"
	"net/http"
)

// DebugHandler serves the layer's run summaries as JSON.
func DebugHandler(l *Layer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		runs := l.Runs()
		out := make([]Summary, len(runs))
		for i, r := range runs {
			out[i] = r.Summarize(true)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck // best-effort HTTP response
			Runs []Summary `json:"runs"`
		}{Runs: out})
	})
}
