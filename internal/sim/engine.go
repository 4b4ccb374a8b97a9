package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a scheduled callback. Events fire in (At, seq) order: ties on the
// clock are broken by scheduling order, which keeps the simulation
// deterministic regardless of heap internals.
type Event struct {
	At Time
	Fn func(e *Engine)

	seq   uint64
	index int  // heap index; -1 once popped or cancelled
	dead  bool // set by Cancel
}

// Cancelled reports whether the event was cancelled before firing.
func (ev *Event) Cancelled() bool { return ev.dead }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; model-level parallelism is expressed as interleaved events,
// not goroutines, so results stay deterministic.
//
// The one sanctioned cross-goroutine touch point is the cancel hook (see
// SetCancelHook): the hook itself may read state written by another
// goroutine, but the engine only ever calls it from the running goroutine,
// at deterministic points in the event stream.
type Engine struct {
	now      Time
	queue    eventHeap
	seq      uint64
	stopped  bool
	fired    uint64
	maxQueue int // pending events after a handler returned, at most

	budgetLimit uint64 // absolute fired-count ceiling; 0 = unlimited
	cancelHook  func() bool
	cancelEvery uint64

	// interruptedErr remembers that the last Run/RunUntil/RunFor returned an
	// interruption (budget or cancel). While set, ScheduleAt refuses new work
	// with a typed panic: an interrupted engine holds a partial event stream,
	// and silently growing it would produce a simulation state no clean run
	// can reproduce. See ClearInterrupted.
	interruptedErr error
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated instant.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// QueueHighWater returns the largest number of events left pending after a
// dispatched handler returned, the events it scheduled included.
func (e *Engine) QueueHighWater() int { return e.maxQueue }

// NextAt returns the instant of the earliest pending event. The second
// result is false when the queue is empty. Conservative parallel runners
// use it to compute the global lower bound on future activity without
// disturbing the queue.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].At, true
}

// ErrPastEvent is returned by ScheduleAt when the requested instant precedes
// the current clock.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ErrEventBudget is returned (wrapped) by Run/RunUntil/RunFor when the
// engine's event budget is exhausted: the fail-safe against a livelocked
// model that keeps rescheduling itself forever.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// ErrCanceled is returned (wrapped) by Run/RunUntil/RunFor when the cancel
// hook reports cancellation: an external abort (trial timeout, SIGINT)
// stopped the run.
var ErrCanceled = errors.New("sim: run canceled")

// ErrScheduleAfterInterrupt is the typed panic value (wrapped) raised by
// ScheduleAt/Schedule when new events are scheduled on an engine whose last
// run returned ErrEventBudget or ErrCanceled. An interrupted engine's queue
// is a partial snapshot — growing it silently would let a torn-down shard or
// an abandoned trial keep mutating state that no clean run reproduces, so
// the engine fails loudly instead. Callers that intend to resume must call
// ClearInterrupted first.
var ErrScheduleAfterInterrupt = errors.New("sim: schedule on interrupted engine")

// Interrupted returns the interruption error of the last run (wrapping
// ErrEventBudget or ErrCanceled), or nil if the engine is runnable.
func (e *Engine) Interrupted() error { return e.interruptedErr }

// ClearInterrupted re-arms an interrupted engine: scheduling is allowed
// again and the next Run picks up from the preserved queue. This is the
// deliberate resume path — e.g. granting a new event budget after
// inspection — as opposed to accidental scheduling during teardown, which
// the ErrScheduleAfterInterrupt panic exists to catch.
func (e *Engine) ClearInterrupted() { e.interruptedErr = nil }

// defaultCancelPoll is how many fired events pass between cancel-hook polls
// when the caller does not choose a cadence.
const defaultCancelPoll = 1024

// SetEventBudget arms (or, with n == 0, disarms) the runaway guard: after n
// more events fire, Run/RunUntil/RunFor stop before dispatching the next
// event and return ErrEventBudget. The budget is counted in events, not wall
// time, so for a given model and seed an exhausted run always stops at the
// same event and the same simulated instant.
func (e *Engine) SetEventBudget(n uint64) {
	if n == 0 {
		e.budgetLimit = 0
		return
	}
	e.budgetLimit = e.fired + n
}

// EventBudgetRemaining returns how many events may still fire before the
// budget trips; it returns ^uint64(0) when no budget is armed.
func (e *Engine) EventBudgetRemaining() uint64 {
	if e.budgetLimit == 0 {
		return ^uint64(0)
	}
	if e.fired >= e.budgetLimit {
		return 0
	}
	return e.budgetLimit - e.fired
}

// SetCancelHook installs (or clears, with a nil fn) the external cancel
// hook. The run loops poll fn every pollEvery fired events (<= 0 selects a
// default cadence) and return ErrCanceled once it reports true. The hook is
// the cooperative path by which another goroutine — a trial-timeout watchdog,
// a SIGINT handler — stops a simulation at a well-defined sim-time: the
// engine never advances past the event at which the hook fired, and the
// pending queue is left intact for inspection.
//
// The hook must be cheap and must not touch engine state; typically it reads
// an atomic flag that the other goroutine raises.
func (e *Engine) SetCancelHook(fn func() bool, pollEvery int) {
	e.cancelHook = fn
	if pollEvery <= 0 {
		e.cancelEvery = defaultCancelPoll
	} else {
		e.cancelEvery = uint64(pollEvery)
	}
}

// interrupted reports why the run loop must stop before dispatching the next
// event: an exhausted event budget or a cancel hook that fired. Both errors
// wrap their typed sentinel and carry the stop instant.
func (e *Engine) interrupted() error {
	if e.budgetLimit != 0 && e.fired >= e.budgetLimit {
		e.interruptedErr = fmt.Errorf("%w: %d events fired, stopped at %v", ErrEventBudget, e.fired, e.now)
		return e.interruptedErr
	}
	if e.cancelHook != nil && e.fired%e.cancelEvery == 0 && e.cancelHook() {
		e.interruptedErr = fmt.Errorf("%w: %d events fired, stopped at %v", ErrCanceled, e.fired, e.now)
		return e.interruptedErr
	}
	return nil
}

// ScheduleAt enqueues fn to run at instant at. It panics if at precedes the
// current clock, because silently reordering the past would corrupt a model;
// name identifies the event in that panic.
func (e *Engine) ScheduleAt(at Time, name string, fn func(*Engine)) *Event {
	if e.interruptedErr != nil {
		panic(fmt.Errorf("%w: at=%v (%s) after %v; call ClearInterrupted to resume deliberately",
			ErrScheduleAfterInterrupt, at, name, e.interruptedErr))
	}
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v at=%v (%s)", ErrPastEvent, e.now, at, name))
	}
	e.seq++
	ev := &Event{At: at, Fn: fn, seq: e.seq}
	heap.Push(&e.queue, ev)
	return ev
}

// Schedule enqueues fn to run after delay d.
func (e *Engine) Schedule(d Duration, name string, fn func(*Engine)) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), name, fn)
}

// Cancel removes a pending event; it is a no-op if the event already fired.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.dead = true
	heap.Remove(&e.queue, ev.index)
}

// Step executes the single earliest pending event and advances the clock to
// it. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	e.fired++
	if ev.Fn != nil {
		ev.Fn(e)
	}
	if len(e.queue) > e.maxQueue {
		e.maxQueue = len(e.queue)
	}
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// nil on a clean drain or Stop, ErrEventBudget when the event budget ran out,
// and ErrCanceled when the cancel hook fired; on error the clock holds at the
// last dispatched event and undispatched events remain queued. While the
// interruption error stands, scheduling panics (ErrScheduleAfterInterrupt);
// calling a run loop again is itself a deliberate resume and re-arms the
// engine.
func (e *Engine) Run() error {
	e.interruptedErr = nil
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		e.Step()
	}
	return nil
}

// RunUntil executes events with At <= deadline and then sets the clock to the
// deadline. Events scheduled beyond the deadline remain queued. When the run
// halts early — Stop from a handler, budget exhaustion, cancellation — the
// clock is NOT advanced to the deadline: it holds at the last dispatched
// event, so callers can see exactly how far the simulation got.
func (e *Engine) RunUntil(deadline Time) error {
	e.interruptedErr = nil
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].At > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return nil
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		e.Step()
	}
	return nil
}

// RunFor advances the simulation by d from the current instant. Early halts
// follow RunUntil's contract: the clock is only advanced to the target
// instant when the run completed.
func (e *Engine) RunFor(d Duration) error {
	return e.RunUntil(e.now.Add(d))
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Every schedules fn at t0 and then every period thereafter until the
// returned Ticker is stopped. Periodic activity — timer ticks, daemon
// wake-ups, monitoring — is the backbone of the OS noise models.
func (e *Engine) Every(t0 Time, period Duration, name string, fn func(*Engine)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for ticker %q", period, name))
	}
	tk := &Ticker{engine: e, period: period, name: name, fn: fn}
	tk.arm(t0)
	return tk
}

// Ticker repeatedly fires a callback at a fixed period.
type Ticker struct {
	engine  *Engine
	period  Duration
	name    string
	fn      func(*Engine)
	next    *Event
	stopped bool
}

func (t *Ticker) arm(at Time) {
	t.next = t.engine.ScheduleAt(at, t.name, func(e *Engine) {
		if t.stopped {
			return
		}
		t.fn(e)
		if !t.stopped {
			t.arm(e.Now().Add(t.period))
		}
	})
}

// Stop cancels future firings. A callback already running completes.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.next)
}
