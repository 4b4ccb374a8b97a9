package kernel

import (
	"fmt"
	"time"
)

// Syscall identifies one of the system calls the models distinguish. The set
// mirrors what matters to the paper: McKernel implements the
// performance-sensitive calls locally (memory management, threading,
// signals) and delegates the rest to Linux through the proxy process
// (Sec. 5).
type Syscall int

// Modeled system calls.
const (
	SysMmap Syscall = iota
	SysMunmap
	SysBrk
	SysMadvise
	SysFutex
	SysClone
	SysExit
	SysGetpid
	SysSignal
	SysOpen
	SysClose
	SysRead
	SysWrite
	SysIoctl
	SysStat
	SysSocket
	SysPerfEventOpen
)

var syscallNames = [...]string{
	SysMmap: "mmap", SysMunmap: "munmap", SysBrk: "brk", SysMadvise: "madvise",
	SysFutex: "futex", SysClone: "clone", SysExit: "exit", SysGetpid: "getpid",
	SysSignal: "rt_sigaction", SysOpen: "open", SysClose: "close",
	SysRead: "read", SysWrite: "write", SysIoctl: "ioctl", SysStat: "stat",
	SysSocket: "socket", SysPerfEventOpen: "perf_event_open",
}

func (s Syscall) String() string {
	if s < 0 || int(s) >= len(syscallNames) {
		return fmt.Sprintf("sys(%d)", int(s))
	}
	return syscallNames[s]
}

// PerformanceSensitive reports whether the call is on McKernel's
// implemented-locally list (memory management, threading, signaling,
// trivial getters).
func (s Syscall) PerformanceSensitive() bool {
	switch s {
	case SysMmap, SysMunmap, SysBrk, SysMadvise, SysFutex, SysClone, SysExit,
		SysGetpid, SysSignal:
		return true
	default:
		return false
	}
}

// CostTable maps syscalls to in-kernel service times. Both kernel models
// consume one of these; Linux's costs include its heavier-weight paths.
type CostTable map[Syscall]time.Duration

// Cost returns the table's cost with a conservative default for calls the
// table does not list.
func (t CostTable) Cost(s Syscall) time.Duration {
	if d, ok := t[s]; ok {
		return d
	}
	return 2 * time.Microsecond
}

// Signal is a POSIX signal number subset.
type Signal int

// Modeled signals.
const (
	SIGHUP  Signal = 1
	SIGINT  Signal = 2
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGSEGV Signal = 11
	SIGUSR2 Signal = 12
	SIGTERM Signal = 15
	SIGCHLD Signal = 17
	SIGCONT Signal = 18
	SIGSTOP Signal = 19
)

// SignalDisposition tells a task what to do with a delivered signal.
type SignalDisposition int

// Dispositions.
const (
	DispositionDefault SignalDisposition = iota
	DispositionIgnore
	DispositionHandler
)

// SignalSet is a bitset of pending or blocked signals.
type SignalSet uint64

// Add inserts sig.
func (s *SignalSet) Add(sig Signal) { *s |= 1 << uint(sig) }

// Remove deletes sig.
func (s *SignalSet) Remove(sig Signal) { *s &^= 1 << uint(sig) }

// Has reports membership.
func (s SignalSet) Has(sig Signal) bool { return s&(1<<uint(sig)) != 0 }

// Empty reports whether no signals are set.
func (s SignalSet) Empty() bool { return s == 0 }

// Deliver queues sig on t following POSIX semantics: SIGKILL/SIGSTOP cannot
// be blocked or ignored; blocked signals stay pending until unblocked;
// ignored signals are dropped. It returns true when the signal becomes
// actionable now (would interrupt the task).
func Deliver(t *Task, sig Signal) bool {
	if sig != SIGKILL && sig != SIGSTOP {
		if t.Handlers[sig] == DispositionIgnore {
			return false
		}
		if t.Blocked.Has(sig) {
			t.Pending.Add(sig)
			return false
		}
	}
	t.Pending.Add(sig)
	return true
}

// Unblock clears sig from the task's blocked set and reports whether a
// pending instance became actionable.
func Unblock(t *Task, sig Signal) bool {
	t.Blocked.Remove(sig)
	return t.Pending.Has(sig)
}
