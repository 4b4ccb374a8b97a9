package mckernel

import (
	"errors"
	"testing"
)

func TestSchedulerPlacementRoundRobin(t *testing.T) {
	s := NewScheduler([]int{4, 5, 6})
	var threads []*Thread
	for i := 0; i < 6; i++ {
		th := &Thread{TID: i}
		if err := s.Add(th); err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	want := []int{4, 5, 6, 4, 5, 6}
	for i, th := range threads {
		if th.Core != want[i] {
			t.Fatalf("thread %d on core %d, want %d", i, th.Core, want[i])
		}
	}
	if s.QueueLen(4) != 2 || s.QueueLen(5) != 2 || s.QueueLen(6) != 2 {
		t.Fatal("queues unbalanced")
	}
}

func TestSchedulerNoCores(t *testing.T) {
	s := NewScheduler(nil)
	if err := s.Add(&Thread{}); !errors.Is(err, ErrNoCores) {
		t.Fatalf("err = %v", err)
	}
}

func TestSchedulerDispatchYieldCycle(t *testing.T) {
	s := NewScheduler([]int{0})
	a, b := &Thread{TID: 1}, &Thread{TID: 2}
	_ = s.Add(a)
	_ = s.Add(b)

	th, err := s.Dispatch(0)
	if err != nil || th != a {
		t.Fatalf("first dispatch = %v, %v", th, err)
	}
	if a.State != ThreadRunning {
		t.Fatal("dispatched thread not running")
	}
	// Cooperative: a must yield for b to run.
	if err := s.Yield(a); err != nil {
		t.Fatal(err)
	}
	if a.State != ThreadReady {
		t.Fatal("yielded thread not ready")
	}
	th, _ = s.Dispatch(0)
	if th != b {
		t.Fatal("round robin violated: b must run after a's yield")
	}
	_ = s.Yield(b)
	th, _ = s.Dispatch(0)
	if th != a {
		t.Fatal("round robin must return to a")
	}
}

func TestSchedulerBlockWake(t *testing.T) {
	s := NewScheduler([]int{0})
	a := &Thread{TID: 1}
	_ = s.Add(a)
	th, _ := s.Dispatch(0)
	if err := s.Block(th); err != nil {
		t.Fatal(err)
	}
	if th.State != ThreadBlocked {
		t.Fatal("not blocked")
	}
	if s.QueueLen(0) != 0 {
		t.Fatal("blocked thread must not be queued")
	}
	if _, err := s.Dispatch(0); err == nil {
		t.Fatal("dispatch from empty queue must fail")
	}
	if err := s.Wake(th); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen(0) != 1 {
		t.Fatal("woken thread must be queued")
	}
	if err := s.Wake(th); err == nil {
		t.Fatal("waking a ready thread must fail")
	}
}

func TestSchedulerStateErrors(t *testing.T) {
	s := NewScheduler([]int{0})
	a := &Thread{TID: 1}
	_ = s.Add(a)
	if err := s.Yield(a); err == nil {
		t.Fatal("yield of ready thread must fail")
	}
	if err := s.Block(a); err == nil {
		t.Fatal("block of ready thread must fail")
	}
	th, _ := s.Dispatch(0)
	s.Exit(th)
	if th.State != ThreadDone {
		t.Fatal("exit state wrong")
	}
	if s.QueueLen(0) != 0 {
		t.Fatal("queue must be empty after exit")
	}
}

func TestLWKMemoryCarveAndCache(t *testing.T) {
	in := fugakuInstance(t)
	m := in.LWKMem
	total := m.TotalBytes()
	if total != 8<<30 { // 2 GiB x 4 CMGs
		t.Fatalf("total = %d, want 8GiB", total)
	}
	base1, err := m.Alloc(3 << 20) // rounds to 4 MiB
	if err != nil {
		t.Fatal(err)
	}
	if m.AllocatedBytes() != 4<<20 {
		t.Fatalf("allocated = %d, want 4MiB (2M-aligned)", m.AllocatedBytes())
	}
	base2, err := m.Alloc(3 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if base1 == base2 {
		t.Fatal("distinct allocations share a base")
	}
	// Free then realloc same size: cache hit returns the same chunk.
	m.Free(base2, 3<<20)
	if m.CachedBytes() != 4<<20 {
		t.Fatalf("cached = %d", m.CachedBytes())
	}
	base3, err := m.Alloc(3 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if base3 != base2 {
		t.Fatal("size-class cache must return the freed chunk")
	}
	if m.CachedBytes() != 0 {
		t.Fatal("cache not drained")
	}
}

func TestLWKMemoryExhaustion(t *testing.T) {
	m := NewMemory(nil, nil)
	if _, err := m.Alloc(1); !errors.Is(err, ErrLWKOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Alloc(0); err == nil {
		t.Fatal("zero alloc must fail")
	}
}
