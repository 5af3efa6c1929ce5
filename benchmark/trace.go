package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the id
// of the span that caused it (-1 for an op's root span); spans of one op
// share Op.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent, Op int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed path pays one nil
// check per layer call and nothing else.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64 // allocation counts taken beside spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string][]float64)}
}

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.epoch), end.Sub(t.epoch), parent, op})
	return len(t.spans) - 1
}

// mallocs reads the process's cumulative allocation count, or 0 when
// tracing is off; countAllocs files the growth since then under name.
// Ops run one at a time, so the growth belongs to the bracketed call.
func (t *tracer) mallocs() uint64 {
	if t == nil {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (t *tracer) countAllocs(name string, before uint64) {
	if t == nil {
		return
	}
	after := t.mallocs()
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], float64(after-before))
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval its child spans cover (children may overlap each
// other, as two workers' scans do, so the union is taken).
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// byName groups span durations by span name.
func (t *tracer) byName() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// writeTraceEvents dumps the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// lane per op.
func (t *tracer) writeTraceEvents(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
