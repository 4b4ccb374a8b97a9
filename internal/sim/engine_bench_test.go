package sim

import "testing"

// The engine benchmarks run at the queue depths the commands see. A trial's
// engine holds at most 4 pending events (sim.queue_depth_hwm), each handler
// scheduling the next; a full-machine FWQ shard holds one event per node,
// all at the instant the benchmark ends, and drains them in a row.

// BenchmarkEngineDispatch schedules and fires one event per op at a steady
// depth of 4: every handler schedules its successor 4 ns on, so 1 alloc/op
// (the Event) is expected.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	var fn func(*Engine)
	fn = func(e *Engine) { e.ScheduleAt(e.Now()+4, "bench", fn) }
	for i := 1; i <= 4; i++ {
		e.ScheduleAt(Time(i), "bench", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained early")
		}
	}
}

// sameInstantDepth is the queue of a 1,536-node full-machine FWQ campaign
// on one shard: one event per node, all at one instant.
const sameInstantDepth = 1536

// BenchmarkEngineDrainSameInstant fires events from a queue refilled with
// sameInstantDepth events at one instant whenever it runs dry; only the
// firing is timed, and it must not allocate.
func BenchmarkEngineDrainSameInstant(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= sameInstantDepth {
		b.StopTimer()
		at := e.Now() + 1
		for i := 0; i < sameInstantDepth; i++ {
			e.ScheduleAt(at, "bench", fn)
		}
		b.StartTimer()
		for i := min(n, sameInstantDepth); i > 0; i-- {
			if !e.Step() {
				b.Fatal("queue drained early")
			}
		}
	}
}

func TestEngineDispatchNoObserverZeroAlloc(t *testing.T) {
	const runs = 1000
	e := NewEngine()
	fn := func(*Engine) {}
	// AllocsPerRun invokes the body runs+1 times; queue one spare.
	for i := 0; i < runs+1; i++ {
		e.ScheduleAt(Time(i), "alloc-gate", fn)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	})
	if allocs != 0 {
		t.Fatalf("dispatch allocated %.1f allocs/op, want 0", allocs)
	}
}
