package linux

import (
	"strings"
	"testing"
	"time"

	"mkos/internal/cpu"
	"mkos/internal/kernel"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

func TestTracerRecordAndAttribute(t *testing.T) {
	tr := NewTracer(100)
	tr.Record(0, 0, "ignored", kernel.DaemonTask, time.Millisecond)
	if len(tr.events) != 0 {
		t.Fatal("fresh tracer must be disabled")
	}
	tr.Enable()
	tr.Record(sim.Time(10), 0, "kworker/u0", kernel.KworkerTask, 100*time.Microsecond)
	tr.Record(sim.Time(20), 0, "kworker/u0", kernel.KworkerTask, 300*time.Microsecond)
	tr.Record(sim.Time(30), 1, "sshd", kernel.DaemonTask, 2*time.Millisecond)
	tr.Record(sim.Time(40), 5, "blk-mq/0", kernel.BlkMQTask, time.Millisecond)
	if len(tr.events) != 4 {
		t.Fatalf("events = %d, want 4", len(tr.events))
	}

	// Attribution restricted to CPUs 0 and 1.
	attr := tr.AttributeOn(map[int]bool{0: true, 1: true})
	if len(attr) != 2 {
		t.Fatalf("attributions = %d, want 2 (blk-mq on cpu 5 excluded)", len(attr))
	}
	// Sorted by total stolen time: sshd (2ms) before kworker (400us).
	if attr[0].Task != "sshd" || attr[1].Task != "kworker/u0" {
		t.Fatalf("order = %s, %s", attr[0].Task, attr[1].Task)
	}
	if attr[1].Count != 2 || attr[1].Total != 400*time.Microsecond || attr[1].Max != 300*time.Microsecond {
		t.Fatalf("kworker aggregation wrong: %+v", attr[1])
	}
	if attr[0].String() == "" {
		t.Fatal("empty attribution string")
	}
	// nil CPU filter includes everything.
	all := tr.AttributeOn(nil)
	if len(all) != 3 {
		t.Fatalf("unfiltered attributions = %d, want 3", len(all))
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(3)
	tr.Enable()
	for i := 0; i < 5; i++ {
		tr.Record(sim.Time(i), 0, "t", kernel.KworkerTask, time.Microsecond)
	}
	evs := tr.events
	if len(evs) != 3 {
		t.Fatalf("ring buffer holds %d, want 3", len(evs))
	}
	if evs[0].At != sim.Time(2) || evs[2].At != sim.Time(4) {
		t.Fatalf("oldest events must be dropped: %v..%v", evs[0].At, evs[2].At)
	}
	// Zero limit gets a sane default.
	if NewTracer(0) == nil {
		t.Fatal("nil tracer")
	}
}

// TestAttributeProfileFindsBlkMQ reproduces the Sec. 4.2.1 discovery: with
// blk-mq binding disabled, the trace on application cores shows blk-mq
// workers; with it enabled they vanish.
func TestAttributeProfileFindsBlkMQ(t *testing.T) {
	tune := FugakuTuning()
	tune.Counter.BindBlkMQ = false
	k, err := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	attr := k.AttributeProfile(10*time.Minute, 3)
	found := map[string]bool{}
	for _, a := range attr {
		found[a.Task] = true
		if a.Count <= 0 || a.Total <= 0 {
			t.Fatalf("degenerate attribution: %+v", a)
		}
	}
	if !found["blk-mq"] {
		t.Fatalf("blk-mq must appear on app cores when unbound; saw %v", found)
	}
	if !found["sar"] {
		t.Fatal("sar residual must always appear")
	}

	// With the countermeasure on, blk-mq disappears from app cores.
	tuned, err := NewKernel(cpu.A64FX(2), FugakuTuning(), 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tuned.AttributeProfile(10*time.Minute, 3) {
		if a.Task == "blk-mq" || a.Task == "daemons" || a.Task == "kworkers" {
			t.Fatalf("%s must not run on app cores under full countermeasures", a.Task)
		}
	}
}

// TestAttributeProfileKinds verifies the task-kind mapping used in reports.
func TestAttributeProfileKinds(t *testing.T) {
	cases := map[string]kernel.TaskKind{
		"daemons": kernel.DaemonTask, "kworkers": kernel.KworkerTask,
		"blk-mq": kernel.BlkMQTask, "sar": kernel.MonitorTask,
		"anything-else": kernel.KworkerTask,
	}
	for src, want := range cases {
		if kindOf(src) != want {
			t.Fatalf("kindOf(%s) = %v", src, kindOf(src))
		}
	}
}

func TestTracerDropAccounting(t *testing.T) {
	sink := telemetry.NewSink()
	tr := NewTracer(4)
	tr.Sink = sink
	tr.Enable()
	for i := 0; i < 6; i++ {
		tr.Record(sim.Time(i*10), 0, "churner", kernel.KworkerTask, time.Microsecond)
	}
	if got := len(tr.events); got != 4 {
		t.Fatalf("buffer holds %d events, want 4", got)
	}
	if tr.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", tr.dropped)
	}
	// Oldest events were discarded: the window starts at the third record.
	if tr.events[0].At != sim.Time(20) {
		t.Fatalf("oldest retained event at %v, want 20ns", tr.events[0].At)
	}
	reg := sink.Registry()
	if got := reg.CounterValue("linux.ftrace.dropped"); got != 2 {
		t.Fatalf("sink drop counter = %d, want 2", got)
	}
	if got := reg.CounterValue("linux.ftrace.events"); got != 6 {
		t.Fatalf("sink event counter = %d, want 6", got)
	}
}

func TestTracerForwardsToRecorder(t *testing.T) {
	sink := telemetry.NewSink()
	sink.Recorder().Enable()

	tr := NewTracer(16)
	tr.Node = 3
	tr.Sink = sink
	tr.Enable()
	tr.Record(sim.Time(100), 2, "kworker/2:1", kernel.KworkerTask, 50*time.Microsecond)
	rec := sink.Recorder()
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d events, want 1", rec.Len())
	}
	var b strings.Builder
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"cat":"linux"`, `"name":"kworker/2:1"`, `"pid":3`, `"tid":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace export missing %s:\n%s", want, out)
		}
	}
}
