package sim

import "testing"

// Dispatch is the hot loop of every deterministic trial: popping and
// firing an event must not allocate. The benchmark reports the numbers
// (expect 0 B/op, 0 allocs/op); the AllocsPerRun test below turns the
// property into a hard gate.

func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < b.N; i++ {
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
