package mckernel

import (
	"errors"
	"fmt"
)

// Process is a McKernel process: threads plus the handle to its Linux proxy.
type Process struct {
	PID     int
	Name    string
	Threads []*Thread
	Exited  bool

	proxy *Proxy
}

// Proxy returns the Linux-side twin.
func (p *Process) Proxy() *Proxy { return p.proxy }

// ThreadState is a McKernel thread's scheduler state.
type ThreadState int

// Thread states.
const (
	ThreadReady ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadDone
)

// Thread is one schedulable McKernel thread.
type Thread struct {
	TID   int
	Proc  *Process
	State ThreadState
	Core  int // core the thread is bound to; -1 before placement
}

// Scheduler is McKernel's CPU scheduler: cooperative, tick-less round robin
// with one run queue per core and no load balancing — threads stay where
// they are placed (Sec. 5: "a simple round-robin co-operative (tick-less)
// scheduler"). No timer interrupt ever preempts a running thread, which is
// precisely why the LWK has no scheduling noise.
type Scheduler struct {
	cores  []int
	queues map[int][]*Thread // per-core FIFO of ready threads
	place  int               // round-robin placement cursor
}

// Scheduler errors.
var (
	ErrNoCores  = errors.New("mckernel: scheduler has no cores")
	ErrNotReady = errors.New("mckernel: thread not in ready state")
)

// NewScheduler creates a scheduler over the partition's cores.
func NewScheduler(cores []int) *Scheduler {
	qs := make(map[int][]*Thread, len(cores))
	for _, c := range cores {
		qs[c] = nil
	}
	return &Scheduler{cores: append([]int(nil), cores...), queues: qs}
}

// Add places a new thread on the next core round-robin and enqueues it.
func (s *Scheduler) Add(t *Thread) error {
	if len(s.cores) == 0 {
		return ErrNoCores
	}
	core := s.cores[s.place%len(s.cores)]
	s.place++
	t.Core = core
	t.State = ThreadReady
	s.queues[core] = append(s.queues[core], t)
	return nil
}

// Dispatch marks the head thread running and removes it from the queue.
func (s *Scheduler) Dispatch(core int) (*Thread, error) {
	q := s.queues[core]
	if len(q) == 0 {
		return nil, fmt.Errorf("mckernel: core %d run queue empty", core)
	}
	t := q[0]
	if t.State != ThreadReady {
		return nil, fmt.Errorf("%w: tid %d state %d", ErrNotReady, t.TID, t.State)
	}
	s.queues[core] = q[1:]
	t.State = ThreadRunning
	return t, nil
}

// Yield re-enqueues a running thread at the tail of its core's queue —
// the only way control transfers between threads on a core.
func (s *Scheduler) Yield(t *Thread) error {
	if t.State != ThreadRunning {
		return fmt.Errorf("mckernel: yield from non-running tid %d", t.TID)
	}
	t.State = ThreadReady
	s.queues[t.Core] = append(s.queues[t.Core], t)
	return nil
}

// Block parks a running thread (futex wait, offloaded syscall in flight).
func (s *Scheduler) Block(t *Thread) error {
	if t.State != ThreadRunning {
		return fmt.Errorf("mckernel: block from non-running tid %d", t.TID)
	}
	t.State = ThreadBlocked
	return nil
}

// Wake makes a blocked thread ready on its original core.
func (s *Scheduler) Wake(t *Thread) error {
	if t.State != ThreadBlocked {
		return fmt.Errorf("mckernel: wake of non-blocked tid %d", t.TID)
	}
	t.State = ThreadReady
	s.queues[t.Core] = append(s.queues[t.Core], t)
	return nil
}

// Exit retires a thread permanently.
func (s *Scheduler) Exit(t *Thread) {
	t.State = ThreadDone
}

// QueueLen returns the ready-queue depth of a core.
func (s *Scheduler) QueueLen(core int) int { return len(s.queues[core]) }
