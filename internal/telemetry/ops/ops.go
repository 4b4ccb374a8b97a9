// Package ops is the wall-clock flight recorder for the service side of the
// stack: context-propagated causal spans (request → admission → queue wait →
// dispatch → trial), exported in the same Chrome trace_event JSON the
// deterministic sim-time Recorder emits, so one Perfetto load shows ops
// wall-time spans beside sim-time traces.
//
// It is deliberately a separate subsystem from internal/telemetry's
// deterministic recorder. The sim-time trace is part of a campaign's
// byte-deterministic artifact contract; ops spans measure the host — real
// queues, real goroutines, real milliseconds — and may never leak into
// deterministic packages (simlint's rules table, forbidden, enforces the
// boundary). Everything here is nil-safe: code instrumented with ops.Start
// pays a context lookup and nothing else when no tracer is attached, so the
// sweep orchestrator can carry spans unconditionally while CLI runs without
// -ops-trace stay untraced.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Arg is one key/value annotation on an ops span or instant. Args are an
// ordered slice, not a map, so the JSON export is reproducible for a fixed
// event sequence.
type Arg struct {
	Key, Val string
}

// event is one completed span ('X') or instant ('i') on the wall clock.
type event struct {
	ph     byte
	name   string
	track  int64
	ts     time.Duration // offset from tracer epoch
	dur    time.Duration
	span   int64 // this event's span id (0 for instants)
	parent int64 // parent span id (0 for roots)
	req    string
	args   []Arg
}

// DefaultCapacity bounds the event buffer when New is given n <= 0.
const DefaultCapacity = 1 << 16

// opsPID is the Chrome-trace process id for every ops track. Sim-time traces
// use small node indices as pids, so a merged Perfetto load keeps the two
// worlds in visibly separate process groups.
const opsPID = 1 << 20

// Tracer collects ops events for one process. Concurrent roots (requests,
// campaigns, trials) each get their own track (Chrome-trace tid) so spans
// that overlap in wall time never collapse into one lane; children inherit
// the parent's track, and causality is additionally explicit in every
// event's args (span/parent/request ids), so parentage survives any viewer.
type Tracer struct {
	epoch time.Time

	nextSpan  atomic.Int64
	nextTrack atomic.Int64

	mu      sync.Mutex
	cap     int
	buf     []event
	dropped int64
	tracks  map[int64]string // track id → label (first root span's name)
}

// New returns a tracer with the given event-buffer capacity (<= 0 selects
// DefaultCapacity). Once full, further events are counted as dropped rather
// than buffered — the flight recorder degrades, it never blocks the service.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		epoch:  time.Now(),
		cap:    capacity,
		tracks: make(map[int64]string),
	}
}

// Dropped returns the number of events discarded because the buffer filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

func (t *Tracer) record(ev event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) >= t.cap {
		t.dropped++
		return
	}
	t.buf = append(t.buf, ev)
}

// newTrack allocates a fresh Chrome-trace lane labeled after the root span
// that opens it.
func (t *Tracer) newTrack(label string) int64 {
	id := t.nextTrack.Add(1)
	t.mu.Lock()
	t.tracks[id] = label
	t.mu.Unlock()
	return id
}

// Span is one in-flight wall-clock operation. The zero value and nil are
// inert: End on them is a no-op, so callers never need to guard.
type Span struct {
	tr     *Tracer
	name   string
	id     int64
	parent int64
	track  int64
	req    string
	start  time.Time

	mu    sync.Mutex
	args  []Arg
	ended bool
}

// End completes the span, appending any final args. Safe to call more than
// once; only the first call records.
func (s *Span) End(args ...Arg) {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	all := append(s.args, args...)
	s.mu.Unlock()
	s.tr.record(event{
		ph: 'X', name: s.name, track: s.track,
		ts: s.start.Sub(s.tr.epoch), dur: time.Since(s.start),
		span: s.id, parent: s.parent, req: s.req, args: all,
	})
}

// ID returns the span's id, 0 for a nil or untraced span.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// start opens a span as a child of parent (which may be nil for a root).
// When the caller does not force a fresh track, children share the parent's
// lane — correct for sequential phases of one request; concurrent children
// (trials under one campaign) must force their own.
func (t *Tracer) start(name string, parent *Span, req string, freshTrack bool, args []Arg) *Span {
	s := &Span{
		tr:    t,
		name:  name,
		id:    t.nextSpan.Add(1),
		req:   req,
		start: time.Now(),
		args:  args,
	}
	if parent != nil && parent.tr == t {
		s.parent = parent.id
		if s.req == "" {
			s.req = parent.req
		}
		s.track = parent.track
	}
	if s.track == 0 || freshTrack {
		s.track = t.newTrack(name)
	}
	return s
}

// Instant records a point event on the given span's track (or a shared track
// 0-adjacent lane when span is nil).
func (t *Tracer) instant(name string, parent *Span, req string, args []Arg) {
	if t == nil {
		return
	}
	var track, pid int64
	if parent != nil && parent.tr == t {
		track = parent.track
		pid = parent.id
		if req == "" {
			req = parent.req
		}
	}
	if track == 0 {
		track = t.newTrack(name)
	}
	t.record(event{
		ph: 'i', name: name, track: track,
		ts: time.Since(t.epoch), parent: pid, req: req, args: args,
	})
}

// WriteChromeTrace renders the buffer as Chrome trace_event JSON, the same
// envelope the sim-time Recorder emits ({"traceEvents":[...]}), so the two
// artifacts merge with a single jq pass (see the README recipe). All ops
// events share one pid whose process_name is "ops (wall clock)"; each track
// is a named thread. Every span carries span/parent/request ids in its args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	t.mu.Lock()
	events := append([]event(nil), t.buf...)
	tracks := make(map[int64]string, len(t.tracks))
	for id, label := range t.tracks {
		tracks[id] = label
	}
	dropped := t.dropped
	t.mu.Unlock()

	// Spans are recorded at End time, so a parent that outlives its children
	// appears after them; sort by start so the JSON reads causally.
	sort.SliceStable(events, func(i, j int) bool { return events[i].ts < events[j].ts })

	bw := &errWriter{w: w}
	bw.printf(`{"traceEvents":[`)
	bw.printf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		opsPID, jsonString("ops (wall clock)"))
	trackIDs := make([]int64, 0, len(tracks))
	for id := range tracks {
		trackIDs = append(trackIDs, id)
	}
	sort.Slice(trackIDs, func(i, j int) bool { return trackIDs[i] < trackIDs[j] })
	for _, id := range trackIDs {
		bw.printf(`,{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			opsPID, id, jsonString(fmt.Sprintf("%s #%d", tracks[id], id)))
	}
	for _, ev := range events {
		bw.printf(`,{"name":%s,"cat":"ops","ph":"%c","ts":%.3f,`,
			jsonString(ev.name), ev.ph, float64(ev.ts)/float64(time.Microsecond))
		if ev.ph == 'X' {
			bw.printf(`"dur":%.3f,`, float64(ev.dur)/float64(time.Microsecond))
		}
		if ev.ph == 'i' {
			bw.printf(`"s":"t",`)
		}
		bw.printf(`"pid":%d,"tid":%d,"args":{`, opsPID, ev.track)
		if ev.span != 0 {
			bw.printf(`"span":"%d",`, ev.span)
		}
		bw.printf(`"parent":"%d"`, ev.parent)
		if ev.req != "" {
			bw.printf(`,"request":%s`, jsonString(ev.req))
		}
		for _, a := range ev.args {
			bw.printf(",%s:%s", jsonString(a.Key), jsonString(a.Val))
		}
		bw.printf("}}")
	}
	if dropped > 0 {
		bw.printf(`,{"name":"ops-events-dropped","cat":"ops","ph":"i","s":"g","ts":0,"pid":%d,"tid":0,"args":{"dropped":"%d"}}`,
			opsPID, dropped)
	}
	bw.printf(`],"displayTimeUnit":"ms"}`)
	bw.printf("\n")
	return bw.err
}

// WriteFile writes the Chrome trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

// errWriter folds write errors so the exporter body stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
