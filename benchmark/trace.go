package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one operation share Req (the
// root span's ID); Parent is 0 on a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: begin and end do nothing, so call sites carry no
// branch and an untraced run pays only the nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the span with handle parent (-1 for a root)
// and returns its handle.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := span{Name: name, Start: now, ID: uint64(len(t.spans) + 1)}
	if parent >= 0 {
		s.Parent, s.Req = t.spans[parent].ID, t.spans[parent].Req
	} else {
		s.Req = s.ID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return int(s.ID - 1)
}

// end closes the span with the given handle.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeTrace writes the spans, then the counter deltas, as JSON lines.
func writeTrace(path string, spans []span, counters map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}{"counter." + name, counters[name]}
		if err := enc.Encode(line); err != nil {
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
