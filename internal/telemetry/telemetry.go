// Package telemetry is the unified observability substrate of the simulator:
// a metrics registry (counters, gauges, fixed-bucket histograms) with a
// byte-deterministic text dump and a sim-time trace recorder exporting
// Chrome trace_event JSON (opens in Perfetto / chrome://tracing).
//
// The paper's methodology is exactly this kind of whole-stack observability:
// Sec. 4.2.1 attributes noise to its source with ftrace and execution-time
// profiling, and Eqs. 1-2 quantify what was observed. The instrumented
// subsystems (sim, mckernel, linux, cluster, fault, bsp, noise) all publish
// into one Sink so cross-layer questions — "how many syscall offloads, page
// faults and IKC round trips did this job cost?" — have one answer
// surface. Where the host's wall time went is the ops side's question
// (internal/telemetry/ops), never this package's.
//
// Plumbing: there is no process-wide sink. Whoever owns a run creates one
// with NewSink — a sweep trial (sweep.T.Sink), a shard (shard.Shard.Sink),
// a command — and hands it to the objects it builds: cluster.Platform, the
// Linux kernel and the McKernel instance booted on it, the noise profiles
// they derive, the bsp.Machine and the FWQ machine configuration. Event
// sites publish through the sink their object carries.
//
// A component built without a sink carries a nil *Sink, and a nil *Sink
// keeps nothing: Counter, Gauge and Histogram return working handles that
// belong to no registry, Span and Instant record nothing, TraceEnabled
// reports false and PublishEngine publishes nothing. That is the only rule
// for the sinkless case; event sites never test for nil themselves.
//
// Determinism contract: everything recorded into the Registry and the
// Recorder derives from simulated time and seeded randomness only; the
// package reads no host clock (simlint's forbidden table holds it to that).
// Two runs with the same seed produce byte-identical metrics dumps and trace
// JSON (enforced by the determinism regression test).
package telemetry

import "mkos/internal/sim"

// Sink bundles the two telemetry surfaces of one run. Its methods are
// safe for concurrent use. The publishing methods also accept a nil *Sink
// (see the package doc); the accessors, Snapshot and the export methods
// are for the sink's owner and need a sink made by NewSink.
type Sink struct {
	reg *Registry
	rec *Recorder
}

// The engine counts PublishEngine adds to. Every sink's registry holds them
// from the start, so every metrics dump and trial snapshot lists them
// whether or not its run drove an engine.
const (
	eventsFired   = "sim.events_fired"
	queueDepthHWM = "sim.queue_depth_hwm"
)

// NewSink builds an empty sink with tracing disabled.
func NewSink() *Sink {
	reg := NewRegistry()
	reg.Counter(eventsFired)
	reg.Gauge(queueDepthHWM)
	return &Sink{reg: reg, rec: NewRecorder(0)}
}

// Registry returns the sink's metrics registry.
func (s *Sink) Registry() *Registry { return s.reg }

// Recorder returns the sink's trace recorder.
func (s *Sink) Recorder() *Recorder { return s.rec }

// Counter returns the named counter of the sink's registry, creating it on
// first use.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return &Counter{}
	}
	return s.reg.Counter(name)
}

// Gauge returns the named gauge of the sink's registry, creating it on
// first use.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return &Gauge{}
	}
	return s.reg.Gauge(name)
}

// Histogram returns the named histogram of the sink's registry, creating it
// with the given bounds on first use.
func (s *Sink) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return NewHistogram(bounds)
	}
	return s.reg.Histogram(name, bounds)
}

// Span records a complete span on the sink's recorder.
func (s *Sink) Span(cat, name string, node, cpu int, start sim.Time, dur sim.Duration, args ...Arg) {
	if s != nil {
		s.rec.Span(cat, name, node, cpu, start, dur, args...)
	}
}

// Instant records a point event on the sink's recorder.
func (s *Sink) Instant(cat, name string, node, cpu int, at sim.Time, args ...Arg) {
	if s != nil {
		s.rec.Instant(cat, name, node, cpu, at, args...)
	}
}

// TraceEnabled reports whether the sink's recorder is capturing; hot paths
// use it to skip building span arguments entirely.
func (s *Sink) TraceEnabled() bool { return s != nil && s.rec.Enabled() }

// PublishEngine records an engine run that the caller has drained: the
// events e fired since it had fired `since` add to sim.events_fired, and
// e's queue high-water mark raises sim.queue_depth_hwm.
func (s *Sink) PublishEngine(e *sim.Engine, since uint64) {
	if s != nil {
		s.reg.Counter(eventsFired).Add(int64(e.Fired() - since))
		s.reg.Gauge(queueDepthHWM).SetMax(float64(e.QueueHighWater()))
	}
}
