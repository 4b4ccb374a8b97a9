package noise

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

func counterProfile() *Profile {
	p := &Profile{Subsystem: "linux"}
	p.MustAdd(&Source{Name: "tick", Cores: []int{0, 1}, Mode: TargetAll,
		Every: time.Millisecond, Length: 2 * time.Microsecond})
	p.MustAdd(&Source{Name: "kworker", Cores: []int{0, 1, 2}, Mode: TargetRandom,
		Every: 3 * time.Millisecond, EveryCV: 0.5, Length: 20 * time.Microsecond, LengthCV: 0.5})
	p.MustAdd(&Source{Name: "off", Cores: []int{1}, Mode: TargetOne,
		Every: time.Millisecond, Length: time.Microsecond, Disabled: true})
	p.MustAdd(&Source{Name: "rare", Cores: []int{2}, Mode: TargetOne,
		Every: time.Hour, Length: time.Millisecond})
	return p
}

// TestTimelinePublishesNoiseCounters pins the per-source counters a
// Timeline publishes to its events: one events counter per source that
// produced any, and the summed stolen time; silent sources publish nothing.
func TestTimelinePublishesNoiseCounters(t *testing.T) {
	sink := telemetry.NewSink()
	p := counterProfile()
	p.Sink = sink
	tl := p.Timeline(50*time.Millisecond, sim.NewRand(3))
	events := map[string]int64{}
	var stolen time.Duration
	for cpu := 0; cpu < 3; cpu++ {
		for _, iv := range tl.ForCPU(cpu) {
			events[iv.Source]++
			stolen += iv.Len
		}
	}
	reg := sink.Registry()
	for _, name := range []string{"tick", "kworker"} {
		if events[name] == 0 {
			t.Fatalf("source %s produced no events; the test needs some", name)
		}
		if got := reg.CounterValue("linux.noise.events." + name); got != events[name] {
			t.Fatalf("linux.noise.events.%s = %d, timeline holds %d", name, got, events[name])
		}
	}
	if got := reg.CounterValue("linux.noise.stolen_ns"); got != int64(stolen) {
		t.Fatalf("linux.noise.stolen_ns = %d, timeline steals %d", got, stolen)
	}
	var dump bytes.Buffer
	reg.WriteTo(&dump)
	for _, silent := range []string{"off", "rare"} {
		if strings.Contains(dump.String(), "events."+silent) {
			t.Fatalf("source %s produced no events but has a counter:\n%s", silent, dump.String())
		}
	}
}

// TestGeneratorPublishSumsAndResets checks that Publish adds every node
// generated since the previous Publish, and only those.
func TestGeneratorPublishSumsAndResets(t *testing.T) {
	g := counterProfile().Generator()
	sink := telemetry.NewSink()
	reg := sink.Registry()
	var events []Interruption
	var stolen time.Duration
	var ticks int64
	node := func(n int64) {
		events = g.AppendNode(events[:0], 20*time.Millisecond, sim.NewRand(n))
		for _, iv := range events {
			stolen += iv.Len
			if iv.Source == "tick" {
				ticks++
			}
		}
	}
	check := func(when string) {
		t.Helper()
		if got := reg.CounterValue("linux.noise.stolen_ns"); got != int64(stolen) {
			t.Fatalf("stolen_ns = %d after %s, want %d", got, when, stolen)
		}
		if got := reg.CounterValue("linux.noise.events.tick"); got != ticks {
			t.Fatalf("events.tick = %d after %s, want %d", got, when, ticks)
		}
	}
	for n := int64(0); n < 3; n++ {
		node(n)
	}
	g.Publish(sink)
	g.Publish(sink)
	check("three nodes and a repeated Publish")
	node(3)
	g.Publish(sink)
	check("a fourth node")
}
