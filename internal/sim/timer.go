package sim

// Timer is a cancellable, resettable one-shot event: the building block for
// timeout detection. A watchdog is a Timer armed with its expiry period and
// Reset ("fed") on every heartbeat; if the heartbeats stop, the timer fires.
// Unlike a raw Event, a Timer survives firing and can be re-armed.
type Timer struct {
	engine *Engine
	name   string
	fn     func(*Engine)
	ev     *Event
}

// AfterFunc schedules fn to run once after d and returns a Timer that can be
// stopped or reset before it fires.
func (e *Engine) AfterFunc(d Duration, name string, fn func(*Engine)) *Timer {
	t := &Timer{engine: e, name: name, fn: fn}
	t.arm(d)
	return t
}

func (t *Timer) arm(d Duration) {
	t.ev = t.engine.Schedule(d, t.name, func(e *Engine) {
		t.ev = nil
		t.fn(e)
	})
}

// Stop cancels the pending firing. It reports whether the timer was active
// (false means it already fired or was already stopped).
func (t *Timer) Stop() bool {
	if t.ev == nil {
		return false
	}
	t.engine.Cancel(t.ev)
	t.ev = nil
	return true
}

// Reset re-arms the timer to fire d after the current instant, whether or not
// it is currently active. Feeding a watchdog is Reset with its timeout. It
// reports whether the timer was active when reset.
func (t *Timer) Reset(d Duration) bool {
	active := t.Stop()
	t.arm(d)
	return active
}
