package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base; parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	name       int32
	parent     int32
	start, end int64
}

// spans records the spans of one traced run in memory. A disabled
// recorder reads no clock, so the same driven loop runs untraced.
type spans struct {
	on    bool
	runID string
	base  time.Time
	names []string
	index map[string]int32
	list  []span
}

func newSpans(on bool, runID string, capacity int) *spans {
	s := &spans{on: on, runID: runID, index: map[string]int32{}}
	if on {
		s.list = make([]span, 0, capacity)
		s.base = time.Now()
	}
	return s
}

// name interns a span name; call it outside the timed loop.
func (s *spans) name(n string) int32 {
	if id, ok := s.index[n]; ok {
		return id
	}
	id := int32(len(s.names))
	s.names = append(s.names, n)
	s.index[n] = id
	return id
}

// begin opens a span and returns its handle (-1 when disabled).
func (s *spans) begin(name, parent int32) int32 {
	if !s.on {
		return -1
	}
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.base).Nanoseconds()})
	return int32(len(s.list) - 1)
}

// end closes a span opened by begin.
func (s *spans) end(id int32) {
	if id >= 0 {
		s.list[id].end = time.Since(s.base).Nanoseconds()
	}
}

// durations returns the duration in nanoseconds of every span named n.
func (s *spans) durations(n string) []float64 {
	id, ok := s.index[n]
	if !ok {
		return nil
	}
	var out []float64
	for _, sp := range s.list {
		if sp.name == id {
			out = append(out, float64(sp.end-sp.start))
		}
	}
	return out
}

// total sums the durations of every span named n.
func (s *spans) total(n string) float64 {
	var t float64
	for _, d := range s.durations(n) {
		t += d
	}
	return t
}

// selfTotal sums the self time of every span named n: its duration minus
// the time its direct children cover. Children of one span run one after
// another, so their durations add without overlap.
func (s *spans) selfTotal(n string) float64 {
	id, ok := s.index[n]
	if !ok {
		return 0
	}
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	var t float64
	for i, sp := range s.list {
		if sp.name == id {
			t += float64(sp.end - sp.start - child[i])
		}
	}
	return t
}

// count is the number of spans named n.
func (s *spans) count(n string) int { return len(s.durations(n)) }

// write writes the spans as JSONL (run, id, parent, name, start and end in
// ns) to path, replacing any earlier file.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type rec struct {
		Run    string `json:"run"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	for i, sp := range s.list {
		if err := enc.Encode(rec{s.runID, i, sp.parent, s.names[sp.name], sp.start, sp.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
