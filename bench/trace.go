package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one daemon job share Job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and per-call histograms in memory until the run
// ends. A nil *tracer records nothing, so untraced repetitions pass nil.
// It is safe for concurrent use (the daemon's clients record from their
// own goroutines).
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
	hists  map[string][]float64 // nanoseconds, or the histogram's own unit
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hists: make(map[string][]float64)}
}

// id reserves a span id, so children can name a parent that finishes
// after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *tracer) add(id, parent int64, name, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// observe adds one sample to the named histogram. Per-call costs are
// aggregated this way rather than kept as one span per call.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hists[name] = append(t.hists[name], v)
}

// quantile returns the named histogram's q-quantile (0 when it has no
// samples).
func (t *tracer) quantile(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.hists[name], q)
}

func (t *tracer) p50(name string) float64 { return t.quantile(name, 0.5) }

// spansSince returns a copy of the spans recorded from index from on.
func (t *tracer) spansSince(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[from:])
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans, then one summary line per histogram (count,
// total and median), as NDJSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(t.hists))
	for name := range t.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := t.hists[name]
		total := 0.0
		for _, x := range xs {
			total += x
		}
		line := struct {
			Hist  string  `json:"hist"`
			Count int     `json:"count"`
			Total float64 `json:"total"`
			P50   float64 `json:"p50"`
		}{name, len(xs), total, median(xs)}
		if err := enc.Encode(line); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and children reaching outside their parent count
// only inside it.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			cur = max(cur, min(c.End, s.End))
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}
