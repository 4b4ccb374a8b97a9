package main

import (
	"context"
	"io"
	"testing"

	"mkos/internal/telemetry"
)

// TestOpsProbeEngineCounts pins the probe's two engines, the resilient
// scheduler's batch and the delegator's syscall chain, to the counts
// `repro -quick` publishes: 36 events and a pending high-water mark of 4.
func TestOpsProbeEngineCounts(t *testing.T) {
	sink := telemetry.NewSink()
	if err := runOpsStage(context.Background(), io.Discard, true, sink); err != nil {
		t.Fatal(err)
	}
	if got := sink.Registry().CounterValue("sim.events_fired"); got != 36 {
		t.Errorf("sim.events_fired = %d, want 36", got)
	}
	if got := sink.Registry().Gauge("sim.queue_depth_hwm").Value(); got != 4 {
		t.Errorf("sim.queue_depth_hwm = %g, want 4", got)
	}
}
