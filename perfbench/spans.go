package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary: an operation, the engine
// or session call it makes, or a segment the call emitted. Times are
// nanoseconds since the tracer's epoch; parent is the index of the
// enclosing span, -1 for an operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and no span is ever created.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span starting now and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	return t.add(name, time.Now(), parent, op)
}

// add records a span starting at start; end it with end or finish.
func (t *tracer) add(name string, start time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) { t.finish(id, time.Now()) }

func (t *tracer) finish(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// spanStat is the per-name aggregate of a trace: how many spans, their total
// duration, and their self time — the duration not covered by child spans.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. Children of one span never overlap
// (an op's calls run in sequence; a call's emitted segments tile it), so a
// span's self time is its duration minus the sum of its children's.
func selfTimes(spans []span) []spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores every span as one JSON line in path, followed by one line per
// span name with its self time, and returns the per-name aggregate.
func (t *tracer) write(path string) ([]spanStat, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stats := selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return stats, err
	}
	f, err := os.Create(path)
	if err != nil {
		return stats, err
	}
	w := bufio.NewWriter(f)
	if err := encodeLines(w, t.spans, stats); err != nil {
		f.Close()
		return stats, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return stats, err
	}
	return stats, f.Close()
}

func encodeLines(w io.Writer, spans []span, stats []spanStat) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	for _, st := range stats {
		if err := enc.Encode(map[string]spanStat{"self": st}); err != nil {
			return fmt.Errorf("encode self time: %w", err)
		}
	}
	return nil
}
