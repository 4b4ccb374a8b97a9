package kernel

import (
	"fmt"
	"time"
)

// TaskKind classifies schedulable entities; the noise models care about who
// is running, not what it computes.
type TaskKind int

// Task kinds.
const (
	// AppTask is an application process/thread.
	AppTask TaskKind = iota
	// DaemonTask is a user-space system daemon (systemd services, sshd,
	// monitoring agents...).
	DaemonTask
	// KworkerTask is a kernel worker thread.
	KworkerTask
	// BlkMQTask is a block-multiqueue I/O completion worker.
	BlkMQTask
	// MonitorTask is a periodic monitoring agent (sar).
	MonitorTask
	// ProxyTask is a McKernel proxy process living on the Linux side.
	ProxyTask
)

func (k TaskKind) String() string {
	switch k {
	case AppTask:
		return "app"
	case DaemonTask:
		return "daemon"
	case KworkerTask:
		return "kworker"
	case BlkMQTask:
		return "blk-mq"
	case MonitorTask:
		return "monitor"
	case ProxyTask:
		return "proxy"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TaskState is the lifecycle state of a task.
type TaskState int

// Task states.
const (
	TaskRunnable TaskState = iota
	TaskRunning
	TaskSleeping
	TaskExited
)

func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "runnable"
	case TaskRunning:
		return "running"
	case TaskSleeping:
		return "sleeping"
	case TaskExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Task is a schedulable entity.
type Task struct {
	ID       int
	Name     string
	Kind     TaskKind
	State    TaskState
	Affinity CPUMask
	CPU      int // core currently or last running on; -1 if never placed

	// Runtime accounting.
	UserTime   time.Duration
	KernelTime time.Duration
	Wakeups    uint64

	// Signals.
	Pending  SignalSet
	Blocked  SignalSet
	Handlers map[Signal]SignalDisposition
}

// NewTask creates a runnable task with the given affinity.
func NewTask(id int, name string, kind TaskKind, affinity CPUMask) *Task {
	return &Task{
		ID: id, Name: name, Kind: kind, State: TaskRunnable,
		Affinity: affinity, CPU: -1,
		Handlers: make(map[Signal]SignalDisposition),
	}
}

// SetAffinity replaces the task's CPU mask. An empty mask is rejected, like
// sched_setaffinity(2).
func (t *Task) SetAffinity(m CPUMask) error {
	if m.Empty() {
		return fmt.Errorf("kernel: empty affinity for task %q", t.Name)
	}
	t.Affinity = m
	return nil
}

func (t *Task) String() string {
	return fmt.Sprintf("%s[%d] %s %s cpus=%s", t.Name, t.ID, t.Kind, t.State, t.Affinity)
}

// IRQ is an interrupt descriptor with its steering mask
// (/proc/irq/N/smp_affinity).
type IRQ struct {
	Number   int
	Name     string
	Affinity CPUMask
}

// Route updates the IRQ's affinity mask.
func (q *IRQ) Route(m CPUMask) error {
	if m.Empty() {
		return fmt.Errorf("kernel: empty smp_affinity for IRQ %d", q.Number)
	}
	q.Affinity = m
	return nil
}
