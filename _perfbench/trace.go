package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public API call. Spans of one unit share Unit; Parent is the enclosing
// span's ID, or 0 at the top.
type span struct {
	ID, Parent, Unit int
	Name             string
	Start, End       time.Duration // since the tracer started
}

// layer is the part of the span name before the first dot: "cluster" for
// "cluster.Machine".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can share call sites with traced ones.
type tracer struct {
	mu    sync.Mutex // shard observers call in from runner goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, unit, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, unit, parent, t.now(), -1)
}

// end closes the span begin opened and returns its end time.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
	return at
}

// add records a span whose bounds were observed elsewhere (for example by
// a shard.Observer callback).
func (t *tracer) add(name string, unit, parent int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: unit, Name: name, Start: start, End: end})
	return id
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// count is the number of closed spans named name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			n++
		}
	}
	return n
}

// selfTime sums, over the spans of one layer, the part of each span that
// none of its children covers.
func (t *tracer) selfTime(layer string) time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var self time.Duration
	for _, s := range t.spans {
		if s.layer() == layer {
			self += s.End - s.Start - covered(s, children[s.ID])
		}
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var d time.Duration
	at := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, p.End)
		if hi > lo {
			d += hi - lo
			at = hi
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread row per unit), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Unit,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "unit": s.Unit},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
