package mckernel

import (
	"errors"
	"fmt"

	"mkos/internal/mem"
	"mkos/internal/telemetry"
)

// Memory is McKernel's physical memory manager over the IHK partition: a
// simple region allocator that carves large-page-aligned chunks and caches
// freed chunks per size class instead of returning them. There is no
// interaction with the Linux buddy allocator after boot; the partition's
// memory belongs to the LWK alone — which is why application memory never
// fragments against OS allocations and why heap churn is nearly free.
type Memory struct {
	regions []mem.Region
	cursor  int   // index of the region being carved
	offset  int64 // carve offset within the current region

	// freeLists caches released chunks by size, the LWK's "never give
	// memory back" policy.
	freeLists map[int64][]int64 // size -> base addresses

	// live tracks outstanding allocations (base -> size) so Free can reject
	// double frees and frees of addresses the allocator never handed out
	// instead of silently corrupting the accounting.
	live map[int64]int64

	// AllocHook, when non-nil, runs before every allocation and can force
	// it to fail — the fault injector's OOM surface. McKernel has no demand
	// paging, so a failed allocation is fatal to the job, not reclaimable.
	AllocHook func(size int64) error

	total     int64
	allocated int64

	sink *telemetry.Sink
}

// Memory errors.
var (
	ErrLWKOutOfMemory = errors.New("mckernel: partition memory exhausted")
	ErrBadFree        = errors.New("mckernel: free of unallocated chunk")
	ErrSizeMismatch   = errors.New("mckernel: free size does not match allocation")
)

// NewMemory builds the manager over the partition's regions, publishing
// its allocator counters into sink.
func NewMemory(regions []mem.Region, sink *telemetry.Sink) *Memory {
	m := &Memory{
		regions:   append([]mem.Region(nil), regions...),
		freeLists: make(map[int64][]int64),
		live:      make(map[int64]int64),
		sink:      sink,
	}
	for _, r := range regions {
		m.total += r.Bytes
	}
	return m
}

// TotalBytes returns the partition capacity.
func (m *Memory) TotalBytes() int64 { return m.total }

// AllocatedBytes returns the bytes handed out and not yet freed.
func (m *Memory) AllocatedBytes() int64 { return m.allocated }

// LiveChunks returns the number of outstanding allocations.
func (m *Memory) LiveChunks() int { return len(m.live) }

// Alloc returns the base address of a chunk of exactly size bytes, rounded
// up to the 2 MiB large-page granule. Freed chunks of the same size are
// reused first (O(1)); otherwise the carve cursor advances.
func (m *Memory) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mckernel: non-positive allocation %d", size)
	}
	if m.AllocHook != nil {
		if err := m.AllocHook(size); err != nil {
			m.sink.Counter("mckernel.mem.alloc_failures").Inc()
			return 0, err
		}
	}
	size = mem.Page2M.Align(size)
	m.sink.Counter("mckernel.mem.alloc_calls").Inc()
	if list := m.freeLists[size]; len(list) > 0 {
		base := list[len(list)-1]
		m.freeLists[size] = list[:len(list)-1]
		m.allocated += size
		m.live[base] = size
		m.sink.Counter("mckernel.mem.freelist_hits").Inc()
		m.sink.Counter("mckernel.mem.alloc_bytes").Add(size)
		return base, nil
	}
	for m.cursor < len(m.regions) {
		r := m.regions[m.cursor]
		if m.offset+size <= r.Bytes {
			base := r.Base + m.offset
			m.offset += size
			m.allocated += size
			m.live[base] = size
			m.sink.Counter("mckernel.mem.alloc_bytes").Add(size)
			return base, nil
		}
		m.cursor++
		m.offset = 0
	}
	m.sink.Counter("mckernel.mem.alloc_failures").Inc()
	return 0, fmt.Errorf("%w: want %d bytes, %d allocated of %d", ErrLWKOutOfMemory, size, m.allocated, m.total)
}

// Free returns a chunk to the size-class cache. The physical pages stay with
// the LWK (and stay mapped with large pages); nothing is handed back to
// Linux, so the next Alloc of this size is a cache hit with no page faults.
// Double frees and frees of addresses Alloc never returned are rejected: the
// accounting backs the OOM model, so corrupting it silently would let a
// buggy caller mask or fabricate memory exhaustion.
func (m *Memory) Free(base, size int64) error {
	size = mem.Page2M.Align(size)
	got, ok := m.live[base]
	if !ok {
		return fmt.Errorf("%w: base %#x", ErrBadFree, base)
	}
	if got != size {
		return fmt.Errorf("%w: base %#x allocated %d bytes, freed %d", ErrSizeMismatch, base, got, size)
	}
	delete(m.live, base)
	m.freeLists[size] = append(m.freeLists[size], base)
	m.allocated -= size
	m.sink.Counter("mckernel.mem.free_calls").Inc()
	return nil
}

// CachedBytes returns the bytes sitting in the free caches.
func (m *Memory) CachedBytes() int64 {
	var n int64
	for size, list := range m.freeLists {
		n += size * int64(len(list))
	}
	return n
}
