package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(30*Nanosecond, "c", func(*Engine) { order = append(order, "c") })
	e.Schedule(10*Nanosecond, "a", func(*Engine) { order = append(order, "a") })
	e.Schedule(20*Nanosecond, "b", func(*Engine) { order = append(order, "b") })
	e.Run()
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("event order = %q, want %q", got, want)
	}
	if e.Now() != Time(30) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.ScheduleAt(Time(5), "tie", func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order violated at %d: got %d", i, v)
		}
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100*Nanosecond, "later", func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	e.ScheduleAt(Time(50), "past", func(*Engine) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10*Nanosecond, "x", func(*Engine) { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling twice or cancelling nil must be a safe no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.ScheduleAt(at, "t", func(en *Engine) { fired = append(fired, en.Now()) })
	}
	e.RunUntil(Time(12))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != Time(12) {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events after Run, want 4", len(fired))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Second)
	if e.Now() != Time(Second) {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
	e.RunFor(time.Second)
	if e.Now() != Time(2*Second) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, "one", func(en *Engine) { count++; en.Stop() })
	e.Schedule(2, "two", func(*Engine) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	e.Run() // resuming runs the rest
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tk := e.Every(Time(0), 10*Nanosecond, "tick", func(en *Engine) {
		fires = append(fires, en.Now())
	})
	e.RunUntil(Time(35))
	if len(fires) != 4 { // 0, 10, 20, 30
		t.Fatalf("ticker fired %d times, want 4: %v", len(fires), fires)
	}
	tk.Stop()
	e.RunUntil(Time(100))
	if len(fires) != 4 {
		t.Fatalf("ticker fired after Stop: %v", fires)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(Time(0), 5*Nanosecond, "tick", func(*Engine) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	e.Every(Time(0), 0, "bad", func(*Engine) {})
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Duration(i), "n", func(*Engine) {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(en *Engine)
	recurse = func(en *Engine) {
		depth++
		if depth < 50 {
			en.Schedule(Nanosecond, "r", recurse)
		}
	}
	e.Schedule(0, "r", recurse)
	e.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Now() != Time(49) {
		t.Fatalf("clock = %v, want 49ns", e.Now())
	}
}

// TestEngineRunUntilStoppedHoldsClock is the regression test for the early-
// halt contract: Stop() from a handler must leave the clock at the stopping
// event, not teleport it to the deadline.
func TestEngineRunUntilStoppedHoldsClock(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(Time(5), "stop", func(en *Engine) { en.Stop() })
	e.ScheduleAt(Time(8), "later", func(*Engine) {})
	if err := e.RunUntil(Time(100)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(5) {
		t.Fatalf("clock after Stop = %v, want 5 (must not advance to the deadline)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Resuming finishes the window and only then lands on the deadline.
	if err := e.RunUntil(Time(100)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(100) {
		t.Fatalf("clock after resume = %v, want 100", e.Now())
	}
}

// TestEngineEventBudget: a self-rescheduling (livelocked) model stops with
// ErrEventBudget after exactly the budgeted number of events, at the sim-time
// of the last dispatched event, with the next event still queued.
func TestEngineEventBudget(t *testing.T) {
	e := NewEngine()
	var spin func(*Engine)
	spin = func(en *Engine) { en.Schedule(Nanosecond, "spin", spin) }
	e.Schedule(0, "spin", spin)
	e.SetEventBudget(100)
	err := e.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
	if e.Fired() != 100 {
		t.Fatalf("fired %d events, want exactly 100", e.Fired())
	}
	if e.Now() != Time(99) {
		t.Fatalf("clock = %v, want 99ns (last dispatched event)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the next spin event still queued", e.Pending())
	}
	if e.EventBudgetRemaining() != 0 {
		t.Fatalf("remaining budget = %d, want 0", e.EventBudgetRemaining())
	}
	// Raising the budget resumes the run from where it stopped.
	e.SetEventBudget(50)
	if err := e.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("resumed Run = %v, want ErrEventBudget", err)
	}
	if e.Fired() != 150 {
		t.Fatalf("fired %d events after resume, want 150", e.Fired())
	}
	// Disarming the guard is possible too — give the model a real stop.
	// Scheduling on an interrupted engine panics (ErrScheduleAfterInterrupt),
	// so the resume must be declared first.
	e.ClearInterrupted()
	e.SetEventBudget(0)
	e.Schedule(0, "halt", func(en *Engine) { en.Stop() })
	if err := e.Run(); err != nil {
		t.Fatalf("unbudgeted Run = %v", err)
	}
}

// TestEngineBudgetRunUntil: an exhausted budget inside RunUntil does not
// advance the clock to the deadline.
func TestEngineBudgetRunUntil(t *testing.T) {
	e := NewEngine()
	var spin func(*Engine)
	spin = func(en *Engine) { en.Schedule(Nanosecond, "spin", spin) }
	e.Schedule(0, "spin", spin)
	e.SetEventBudget(10)
	if err := e.RunUntil(Time(Second)); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("RunUntil = %v, want ErrEventBudget", err)
	}
	if e.Now() != Time(9) {
		t.Fatalf("clock = %v, want 9ns", e.Now())
	}
}

// TestEngineCancelHook: an externally set flag stops the run with ErrCanceled
// at a poll boundary, leaving the queue intact for a later resume.
func TestEngineCancelHook(t *testing.T) {
	e := NewEngine()
	var flag atomic.Bool
	var fired int
	var spin func(*Engine)
	spin = func(en *Engine) {
		fired++
		if fired == 7 {
			flag.Store(true)
		}
		en.Schedule(Nanosecond, "spin", spin)
	}
	e.Schedule(0, "spin", spin)
	e.SetCancelHook(flag.Load, 4) // poll every 4 events
	err := e.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	// The flag went up inside event 7; the next poll boundary is 8 fired
	// events, so exactly 8 events dispatched.
	if e.Fired() != 8 {
		t.Fatalf("fired %d events, want 8 (next poll boundary)", e.Fired())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Clearing the hook lets the run resume; the resume must be declared
	// (scheduling on an interrupted engine panics), then give the model a
	// stop condition.
	e.ClearInterrupted()
	e.SetCancelHook(nil, 0)
	e.Schedule(0, "halt", func(en *Engine) { en.Stop() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run after clearing hook = %v", err)
	}
}

// TestEngineQueueHighWater pins the mark sim.queue_depth_hwm publishes:
// the events left pending after a handler returned, the ones it scheduled
// included. Scheduling alone does not raise it.
func TestEngineQueueHighWater(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Duration(i+1)*Nanosecond, "ev", func(*Engine) {})
	}
	if e.QueueHighWater() != 0 {
		t.Fatalf("HWM before any dispatch = %d, want 0", e.QueueHighWater())
	}
	e.Run()
	if e.QueueHighWater() != 4 {
		t.Fatalf("HWM = %d, want 4: five queued, one dispatched", e.QueueHighWater())
	}
	e.Schedule(Nanosecond, "spawner", func(en *Engine) {
		for i := 0; i < 8; i++ {
			en.Schedule(Duration(i+1)*Nanosecond, "child", func(*Engine) {})
		}
	})
	e.Run()
	if e.QueueHighWater() != 8 {
		t.Fatalf("HWM after nested burst = %d, want 8", e.QueueHighWater())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	t1 := t0.Add(500 * Nanosecond)
	if t1 != Time(1500) {
		t.Fatalf("Add: %v", t1)
	}
	if d := t1.Sub(t0); d != 500*Nanosecond {
		t.Fatalf("Sub: %v", d)
	}
	if t0.After(t1) || !t1.After(t0) {
		t.Fatal("After inconsistent")
	}
	if s := Time(2_500_000_000).Seconds(); s != 2.5 {
		t.Fatalf("Seconds: %v", s)
	}
	if Time(1500).String() == "" {
		t.Fatal("empty String()")
	}
}
