package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mkos/internal/sim"
)

func TestProfilerAggregates(t *testing.T) {
	reg := NewRegistry()
	p := NewProfiler(reg)
	p.ObserveEvent("tick", sim.Time(10), 2*time.Microsecond, 3)
	p.ObserveEvent("tick", sim.Time(20), 4*time.Microsecond, 1)
	p.ObserveEvent("", sim.Time(30), time.Microsecond, 0)

	if p.Fired() != 3 {
		t.Fatalf("fired = %d", p.Fired())
	}
	if p.QueueHighWater() != 3 {
		t.Fatalf("hwm = %d", p.QueueHighWater())
	}
	stats := p.Stats()
	if len(stats) != 2 {
		t.Fatalf("labels = %d, want 2", len(stats))
	}
	// Sorted by total wall descending: tick (6us) before (unnamed) (1us).
	if stats[0].Label != "tick" || stats[0].Count != 2 || stats[0].Wall != 6*time.Microsecond {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if stats[0].MaxWall != 4*time.Microsecond {
		t.Fatalf("max wall = %v", stats[0].MaxWall)
	}
	if stats[1].Label != "(unnamed)" {
		t.Fatalf("stats[1] = %+v", stats[1])
	}
	// Deterministic mirrors land in the registry.
	if reg.CounterValue("sim.events_fired") != 3 {
		t.Fatal("events_fired mirror missing")
	}
	if reg.Gauge("sim.queue_depth_hwm").Value() != 3 {
		t.Fatal("queue hwm mirror missing")
	}
}

func TestProfilerEngineIntegration(t *testing.T) {
	sink := NewSink()
	e := sim.NewEngine()
	sink.AttachEngine(e)
	e.Schedule(10, "named-event", func(*sim.Engine) {})
	e.Schedule(20, "", func(*sim.Engine) {}) // unnamed: labelled by callsite
	e.Run()

	p := sink.Profiler()
	if p.Fired() != 2 {
		t.Fatalf("fired = %d", p.Fired())
	}
	var labels []string
	for _, s := range p.Stats() {
		labels = append(labels, s.Label)
	}
	joined := strings.Join(labels, ",")
	if !strings.Contains(joined, "named-event") {
		t.Fatalf("labels = %v", labels)
	}
	// This file is package telemetry, so the callsite subsystem is ours.
	if !strings.Contains(joined, "(telemetry)") {
		t.Fatalf("unnamed event not aggregated by callsite package: %v", labels)
	}
	if sink.Registry().CounterValue("sim.events_fired") != 2 {
		t.Fatal("engine dispatches not mirrored into registry")
	}
}

func TestProfilerReport(t *testing.T) {
	p := NewProfiler(nil)
	p.ObserveEvent("hot-path", 0, time.Millisecond, 7)
	var b bytes.Buffer
	if _, err := p.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hot-path") || !strings.Contains(out, "queue high-water 7") {
		t.Fatalf("report:\n%s", out)
	}
}
