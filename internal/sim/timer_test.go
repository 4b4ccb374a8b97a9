package sim

import (
	"testing"
	"time"
)

func TestAfterFuncFires(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	tm := e.AfterFunc(5*time.Second, "t", func(e *Engine) { firedAt = e.Now() })
	e.Run()
	if firedAt != Time(5*time.Second) {
		t.Fatalf("fired at %v, want T+5s", firedAt)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing must report false")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterFunc(time.Second, "t", func(*Engine) { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop of an active timer must report true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
}

func TestTimerResetPostpones(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	tm := e.AfterFunc(time.Second, "t", func(e *Engine) { firedAt = e.Now() })
	// Advance to 500ms, then push the deadline out.
	e.Schedule(500*time.Millisecond, "feed", func(*Engine) { tm.Reset(time.Second) })
	e.Run()
	if firedAt != Time(1500*time.Millisecond) {
		t.Fatalf("fired at %v, want T+1.5s", firedAt)
	}
}

func TestTimerResetAfterFireRearms(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := e.AfterFunc(time.Second, "t", func(*Engine) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset after fire must report inactive")
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after re-arm", count)
	}
}

// TestWatchdogPattern exercises the heartbeat-fed watchdog idiom: the timer
// only expires once the heartbeats stop, timeout after the last beat.
func TestWatchdogPattern(t *testing.T) {
	e := NewEngine()
	const (
		interval = 1 * time.Second
		timeout  = 3 * time.Second
		lastBeat = 10 * time.Second
	)
	var expired Time
	wd := e.AfterFunc(timeout, "watchdog", func(e *Engine) { expired = e.Now() })
	hb := e.Every(Time(interval), interval, "heartbeat", func(e *Engine) {
		if e.Now() <= Time(lastBeat) {
			wd.Reset(timeout)
		}
	})
	e.RunUntil(Time(30 * time.Second))
	hb.Stop()
	e.Run()
	if expired != Time(lastBeat+timeout) {
		t.Fatalf("watchdog expired at %v, want T+13s", expired)
	}
}
