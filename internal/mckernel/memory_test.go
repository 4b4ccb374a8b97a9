package mckernel

import (
	"errors"
	"testing"

	"mkos/internal/mem"
)

func testMemory(totalMB int64) *Memory {
	return NewMemory([]mem.Region{{Base: 1 << 30, Bytes: totalMB << 20}}, nil)
}

func TestFreeRejectsDoubleFree(t *testing.T) {
	m := testMemory(64)
	base, err := m.Alloc(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(base, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(base, 4<<20); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v, want ErrBadFree", err)
	}
	if m.AllocatedBytes() != 0 {
		t.Fatalf("double free corrupted accounting: %d", m.AllocatedBytes())
	}
}

func TestFreeRejectsUnallocatedBase(t *testing.T) {
	m := testMemory(64)
	if err := m.Free(0xdead0000, 2<<20); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bogus free err = %v, want ErrBadFree", err)
	}
	// A base inside an allocation but not its start is also rejected.
	base, _ := m.Alloc(8 << 20)
	if err := m.Free(base+(2<<20), 2<<20); !errors.Is(err, ErrBadFree) {
		t.Fatalf("interior free err = %v, want ErrBadFree", err)
	}
	if m.AllocatedBytes() != 8<<20 {
		t.Fatalf("rejected frees changed accounting: %d", m.AllocatedBytes())
	}
}

func TestFreeRejectsSizeMismatch(t *testing.T) {
	m := testMemory(64)
	base, _ := m.Alloc(8 << 20)
	if err := m.Free(base, 4<<20); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("short free err = %v, want ErrSizeMismatch", err)
	}
	// Sub-granule differences are not mismatches: both round to 2 MiB.
	m2 := testMemory(64)
	b2, _ := m2.Alloc(3 << 20) // rounds to 4 MiB
	if err := m2.Free(b2, 4<<20); err != nil {
		t.Fatalf("aligned-equal free err = %v", err)
	}
}

func TestFreeThenReallocReusesChunk(t *testing.T) {
	m := testMemory(64)
	base, _ := m.Alloc(4 << 20)
	if err := m.Free(base, 4<<20); err != nil {
		t.Fatal(err)
	}
	again, err := m.Alloc(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatalf("realloc did not hit the size-class cache: %#x vs %#x", again, base)
	}
	// The recycled chunk is live again and freeable exactly once.
	if err := m.Free(again, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(again, 4<<20); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free of recycled chunk err = %v", err)
	}
	if m.LiveChunks() != 0 {
		t.Fatalf("live chunks = %d", m.LiveChunks())
	}
}

func TestAllocHookForcesOOM(t *testing.T) {
	m := testMemory(64)
	m.AllocHook = func(size int64) error { return ErrLWKOutOfMemory }
	if _, err := m.Alloc(2 << 20); !errors.Is(err, ErrLWKOutOfMemory) {
		t.Fatalf("hooked alloc err = %v, want ErrLWKOutOfMemory", err)
	}
	if m.AllocatedBytes() != 0 || m.LiveChunks() != 0 {
		t.Fatal("failed alloc must not account anything")
	}
	m.AllocHook = nil
	if _, err := m.Alloc(2 << 20); err != nil {
		t.Fatalf("alloc after clearing hook: %v", err)
	}
}

func TestInstancePanicSurface(t *testing.T) {
	in := fugakuInstance(t)
	if _, err := in.Spawn("app", 1); err != nil {
		t.Fatalf("spawn on fresh LWK: %v", err)
	}
	err := in.Panic("LWK out of memory")
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("Panic err = %v", err)
	}
	if _, err := in.Spawn("app", 1); !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("spawn on dead LWK err = %v", err)
	}
}
