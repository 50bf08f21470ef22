package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls (and, in the traced phase, rebuilt from the stage spans the
// server echoes). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many calls the span covers: short calls are timed in
	// batches, one span per batch.
	Calls int `json:"calls"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a span and returns its id (ids start at 1; 0 is no parent).
func (t *tracer) add(name string, parent int, req string, start, end int64, calls int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Calls: calls})
	return id
}

// timed runs f and records it as one span of the given name.
func (t *tracer) timed(name string, f func()) {
	a := time.Now()
	f()
	t.add(name, 0, "", t.ns(a), t.ns(time.Now()), 1)
}

// layerTime is one span name's totals over the dump.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	// SelfS is the total minus, for each span, the part of its interval
	// its children cover.
	SelfS float64 `json:"self_s"`
}

// selfTimes returns every span's self time — its duration minus the union
// of its children's intervals — indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	kids := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = (s.End - s.Start) - unionWithin(kids[s.ID], s.Start, s.End)
	}
	return self
}

// layers sums total and self time per span name, sorted by name.
func (t *tracer) layers() []layerTime {
	self := t.selfTimes()
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		l := by[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			by[s.Name] = l
		}
		l.Spans++
		l.Calls += s.Calls
		l.TotalS += float64(s.End-s.Start) / 1e9
		l.SelfS += float64(self[i]) / 1e9
	}
	out := make([]layerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
