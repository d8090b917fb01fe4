package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer. Spans of one cell, trial or
// request share a Group. A child either ran inside its parent's interval
// (a call the parent made) or, with Beside set, next to it: the same
// layer function timed on the same input right before the parent's call,
// standing in for work the parent does inside one public call that the
// benchmark cannot split from outside.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Beside bool   `json:"beside,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced iterations run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, group, name string, beside bool, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Beside: beside})
}

// time runs fn and records it as a span; it returns the span's id.
func (t *tracer) time(parent int64, group, name string, beside bool, fn func()) int64 {
	id := t.id()
	start := time.Now()
	fn()
	t.add(id, parent, group, name, beside, start, time.Now())
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that nested children cover, minus the full duration of
// every beside child. It never goes below zero.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		var ivs [][2]int64
		var beside time.Duration
		for _, c := range kids[s.ID] {
			if c.Beside {
				beside += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		d := s.dur() - covered(ivs) - beside
		self[s.ID] = max(d, 0)
	}
	return self
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]int64) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := int64(math.MinInt64)
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
			end = iv[1]
		}
	}
	return time.Duration(total)
}

// layerTimes sums self time per span name.
func layerTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations returns the full durations of every span with this name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
