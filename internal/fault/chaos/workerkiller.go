package chaos

import (
	"os"
	"sync"
	"time"
)

// WorkerKiller assassinates the supervised *worker* children a daemon
// spawns, at seeded delays after each spawn. It does not own the processes — the supervisor does, and restarting
// the victim is exactly the behavior under test — so the injector is armed
// from the supervisor's spawn hook with the fresh pid and fires from its own
// timer goroutine.
//
// Schedules come from a Plan: the i-th armed kill waits
// Plan.Delay(Name, i, Min, Max), so the same seed kills the same incarnation
// at the same offset and a chaos failure is re-runnable. Kills is the budget
// (< 0 = unlimited — the "poison node" mode where every incarnation dies
// until the supervisor's circuit breaker trips).
type WorkerKiller struct {
	// Plan seeds the delay schedule; nil disarms the killer.
	Plan *Plan
	// Name is the schedule name; empty means "worker-kill".
	Name string
	// Kills bounds how many workers are killed in total: 0 disarms, < 0 is
	// unlimited.
	Kills int
	// Min and Max bound each kill's delay after its worker's spawn.
	Min, Max time.Duration

	mu    sync.Mutex
	armed int
	done  int
}

// Arm schedules the death of the worker process pid, just spawned. It
// returns true when a kill was scheduled (budget remaining), false when the
// killer is disarmed or spent. The SIGKILL is delivered from a background
// goroutine after the planned delay; a worker that exits first makes the
// signal a harmless ESRCH.
func (k *WorkerKiller) Arm(pid int) bool {
	if k == nil || k.Plan == nil || k.Kills == 0 {
		return false
	}
	k.mu.Lock()
	if k.Kills > 0 && k.armed >= k.Kills {
		k.mu.Unlock()
		return false
	}
	i := k.armed
	k.armed++
	k.mu.Unlock()
	name := k.Name
	if name == "" {
		name = "worker-kill"
	}
	delay := k.Plan.Delay(name, i, k.Min, k.Max)
	go func() {
		time.Sleep(delay)
		// os.FindProcess never fails on unix; Kill is SIGKILL. A worker that
		// already exited makes this an error, which is not a landed kill.
		proc, err := os.FindProcess(pid)
		if err != nil {
			return
		}
		if proc.Kill() == nil {
			k.mu.Lock()
			k.done++
			k.mu.Unlock()
		}
	}()
	return true
}

// Killed reports how many armed kills have actually landed so far.
func (k *WorkerKiller) Killed() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.done
}
