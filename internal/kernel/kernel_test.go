package kernel

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestCPUMaskBasics(t *testing.T) {
	m := NewCPUMask(0, 3, 68, 200)
	if got := m.Cores(); !reflect.DeepEqual(got, []int{0, 3, 68, 200}) {
		t.Fatalf("Cores = %v", got)
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d", m.Count())
	}
	m.Set(-1) // negative set is a no-op
	if m.Count() != 4 {
		t.Fatal("no-op operation changed the mask")
	}
}

func TestCPUMaskSetOps(t *testing.T) {
	a := NewCPUMask(0, 1, 2, 3)
	b := NewCPUMask(2, 3, 4, 5)
	if got := a.Intersect(b).Cores(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Union(b).Count(); got != 6 {
		t.Fatalf("Union count = %d", got)
	}
	if !a.Equal(NewCPUMask(3, 2, 1, 0)) {
		t.Fatal("Equal order-independence failed")
	}
	if a.Equal(b) {
		t.Fatal("unequal masks compared equal")
	}
	// Different word lengths with identical content.
	c := NewCPUMask(70).Intersect(NewCPUMask(64))
	if !c.Equal(CPUMask{}) {
		t.Fatal("empty masks with different backing must be Equal")
	}
}

func TestCPUMaskFirstAndFull(t *testing.T) {
	if NewCPUMask().First() != -1 {
		t.Fatal("empty First must be -1")
	}
	if NewCPUMask(65, 3).First() != 3 {
		t.Fatal("First wrong")
	}
	f := FullMask(272)
	cores := f.Cores()
	if f.Count() != 272 || cores[0] != 0 || cores[len(cores)-1] != 271 {
		t.Fatal("FullMask wrong")
	}
}

func TestCPUMaskString(t *testing.T) {
	cases := map[string]CPUMask{
		"(empty)":   {},
		"0-3":       NewCPUMask(0, 1, 2, 3),
		"0-3,68-71": NewCPUMask(0, 1, 2, 3, 68, 69, 70, 71),
		"5":         NewCPUMask(5),
		"1,3,5":     NewCPUMask(1, 3, 5),
		"0,2-4,100": NewCPUMask(0, 2, 3, 4, 100),
	}
	for want, m := range cases {
		if got := m.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

func TestQuickMaskRoundTrip(t *testing.T) {
	f := func(cores []uint8) bool {
		var m CPUMask
		seen := map[int]bool{}
		for _, c := range cores {
			m.Set(int(c))
			seen[int(c)] = true
		}
		if m.Count() != len(seen) {
			return false
		}
		for _, c := range m.Cores() {
			if !seen[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTaskLifecycle(t *testing.T) {
	task := NewTask(1, "a.out", AppTask, NewCPUMask(4, 5))
	if err := task.SetAffinity(CPUMask{}); err == nil {
		t.Fatal("empty affinity must be rejected")
	}
	if !task.Affinity.Equal(NewCPUMask(4, 5)) {
		t.Fatal("rejected SetAffinity changed the mask")
	}
	if err := task.SetAffinity(NewCPUMask(7)); err != nil {
		t.Fatal(err)
	}
	if !task.Affinity.Equal(NewCPUMask(7)) {
		t.Fatal("SetAffinity did not apply")
	}
	if task.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTaskKindAndStateStrings(t *testing.T) {
	kinds := map[TaskKind]string{
		AppTask: "app", DaemonTask: "daemon", KworkerTask: "kworker",
		BlkMQTask: "blk-mq", MonitorTask: "monitor", ProxyTask: "proxy",
		TaskKind(42): "kind(42)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
	states := map[TaskState]string{
		TaskRunnable: "runnable", TaskRunning: "running",
		TaskSleeping: "sleeping", TaskExited: "exited", TaskState(9): "state(9)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Fatalf("%v != %s", s, want)
		}
	}
}

func TestIRQRouting(t *testing.T) {
	q := &IRQ{Number: 42, Name: "eth0", Affinity: NewCPUMask(0, 1, 2)}
	if err := q.Route(CPUMask{}); err == nil {
		t.Fatal("empty smp_affinity must be rejected")
	}
	if err := q.Route(NewCPUMask(48, 49)); err != nil {
		t.Fatal(err)
	}
	if !q.Affinity.Equal(NewCPUMask(48, 49)) {
		t.Fatal("Route did not apply")
	}
}

func TestSyscallClassification(t *testing.T) {
	sensitive := []Syscall{SysMmap, SysMunmap, SysBrk, SysMadvise, SysFutex, SysClone, SysExit, SysGetpid, SysSignal}
	for _, s := range sensitive {
		if !s.PerformanceSensitive() {
			t.Fatalf("%v must be performance sensitive (McKernel-local)", s)
		}
	}
	delegated := []Syscall{SysOpen, SysRead, SysWrite, SysIoctl, SysSocket, SysStat, SysPerfEventOpen}
	for _, s := range delegated {
		if s.PerformanceSensitive() {
			t.Fatalf("%v must be delegated to Linux", s)
		}
	}
}

func TestSyscallNames(t *testing.T) {
	if SysMmap.String() != "mmap" || SysIoctl.String() != "ioctl" {
		t.Fatal("syscall names wrong")
	}
	if Syscall(-1).String() != "sys(-1)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestCostTable(t *testing.T) {
	tbl := CostTable{SysMmap: 5 * time.Microsecond}
	if tbl.Cost(SysMmap) != 5*time.Microsecond {
		t.Fatal("explicit cost wrong")
	}
	if tbl.Cost(SysRead) != 2*time.Microsecond {
		t.Fatal("default cost wrong")
	}
}

func TestSignalDelivery(t *testing.T) {
	task := NewTask(1, "t", AppTask, NewCPUMask(0))
	if !Deliver(task, SIGUSR1) {
		t.Fatal("unblocked signal must be actionable")
	}
	if !task.Pending.Has(SIGUSR1) {
		t.Fatal("signal not pending")
	}

	task2 := NewTask(2, "t2", AppTask, NewCPUMask(0))
	task2.Blocked.Add(SIGUSR2)
	if Deliver(task2, SIGUSR2) {
		t.Fatal("blocked signal must not be actionable")
	}
	if !task2.Pending.Has(SIGUSR2) {
		t.Fatal("blocked signal must stay pending")
	}
	if !Unblock(task2, SIGUSR2) {
		t.Fatal("unblocking with pending signal must report actionable")
	}

	task3 := NewTask(3, "t3", AppTask, NewCPUMask(0))
	task3.Handlers[SIGTERM] = DispositionIgnore
	if Deliver(task3, SIGTERM) {
		t.Fatal("ignored signal must be dropped")
	}
	if task3.Pending.Has(SIGTERM) {
		t.Fatal("ignored signal must not be pending")
	}
}

func TestSIGKILLCannotBeBlockedOrIgnored(t *testing.T) {
	task := NewTask(1, "t", AppTask, NewCPUMask(0))
	task.Blocked.Add(SIGKILL)
	task.Handlers[SIGKILL] = DispositionIgnore
	if !Deliver(task, SIGKILL) {
		t.Fatal("SIGKILL must always be actionable")
	}
}

func TestSignalSetOps(t *testing.T) {
	var s SignalSet
	if !s.Empty() {
		t.Fatal("zero set must be empty")
	}
	s.Add(SIGHUP)
	s.Add(SIGCHLD)
	if !s.Has(SIGHUP) || !s.Has(SIGCHLD) || s.Has(SIGINT) {
		t.Fatal("membership wrong")
	}
	s.Remove(SIGHUP)
	if s.Has(SIGHUP) || s.Empty() {
		t.Fatal("Remove wrong")
	}
}
