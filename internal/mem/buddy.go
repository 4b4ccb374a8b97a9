package mem

import (
	"errors"
	"fmt"
	"slices"
)

// Buddy allocator errors.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadFree     = errors.New("mem: free of unallocated or misaligned block")
	ErrBadOrder    = errors.New("mem: order out of range")
)

// Buddy is a binary-buddy physical page allocator over one contiguous range,
// in the style of the Linux zone allocator. The block at order k spans
// 2^k base pages. Fragmentation emerges naturally: interleaved small
// allocations split high-order blocks, and freeing in a different order
// leaves the free lists populated with low orders only — exactly the
// condition the virtual NUMA nodes of Sec. 4.1.2 exist to prevent for
// application memory.
type Buddy struct {
	basePage int64
	maxOrder int
	base     int64
	size     int64

	free      []freeList    // per-order free block bases
	allocated map[int64]int // block base -> order

	allocCount uint64
	freeCount  uint64
	splits     uint64
	coalesces  uint64
}

// NewBuddy creates a buddy allocator managing size bytes starting at base,
// with the given base page size and maximum order. size must be a multiple
// of the maximum block size.
func NewBuddy(base, size, basePage int64, maxOrder int) (*Buddy, error) {
	if basePage <= 0 || size <= 0 || maxOrder < 0 || maxOrder > 30 {
		return nil, fmt.Errorf("mem: invalid buddy parameters base=%d size=%d page=%d order=%d",
			base, size, basePage, maxOrder)
	}
	maxBlock := basePage << maxOrder
	if size%maxBlock != 0 {
		return nil, fmt.Errorf("mem: size %d not a multiple of max block %d", size, maxBlock)
	}
	b := &Buddy{
		basePage:  basePage,
		maxOrder:  maxOrder,
		base:      base,
		size:      size,
		free:      make([]freeList, maxOrder+1),
		allocated: make(map[int64]int),
	}
	for i := range b.free {
		b.free[i].set = make(map[int64]struct{})
	}
	for off := int64(0); off < size; off += maxBlock {
		b.free[maxOrder].add(base + off)
	}
	return b, nil
}

// BasePage returns the base page size in bytes.
func (b *Buddy) BasePage() int64 { return b.basePage }

// MaxOrder returns the largest block order.
func (b *Buddy) MaxOrder() int { return b.maxOrder }

// TotalBytes returns the managed capacity.
func (b *Buddy) TotalBytes() int64 { return b.size }

// FreeBytes returns the bytes currently free.
func (b *Buddy) FreeBytes() int64 {
	var n int64
	for order := range b.free {
		n += int64(b.free[order].len()) * (b.basePage << order)
	}
	return n
}

// UsedBytes returns the bytes currently allocated.
func (b *Buddy) UsedBytes() int64 { return b.size - b.FreeBytes() }

// OrderFor returns the smallest order whose block covers n bytes.
func (b *Buddy) OrderFor(n int64) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: non-positive allocation %d", n)
	}
	order := 0
	for (b.basePage << order) < n {
		order++
		if order > b.maxOrder {
			return 0, fmt.Errorf("%w: need %d bytes, max block %d", ErrBadOrder, n, b.basePage<<b.maxOrder)
		}
	}
	return order, nil
}

// AllocOrder allocates one block of the given order. It splits the smallest
// suitable larger block when the order's free list is empty.
func (b *Buddy) AllocOrder(order int) (Region, error) {
	if order < 0 || order > b.maxOrder {
		return Region{}, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	cur := order
	for cur <= b.maxOrder && b.free[cur].len() == 0 {
		cur++
	}
	if cur > b.maxOrder {
		return Region{}, fmt.Errorf("%w: order %d", ErrOutOfMemory, order)
	}
	base := b.free[cur].popLowest()
	// Split down to the requested order, parking the upper buddies.
	for cur > order {
		cur--
		b.splits++
		buddy := base + (b.basePage << cur)
		b.free[cur].add(buddy)
	}
	b.allocated[base] = order
	b.allocCount++
	return Region{Base: base, Bytes: b.basePage << order, Order: order}, nil
}

// Alloc allocates the smallest block covering n bytes.
func (b *Buddy) Alloc(n int64) (Region, error) {
	order, err := b.OrderFor(n)
	if err != nil {
		return Region{}, err
	}
	return b.AllocOrder(order)
}

// Free releases a previously allocated region and coalesces with free
// buddies as far as possible.
func (b *Buddy) Free(r Region) error {
	order, ok := b.allocated[r.Base]
	if !ok || order != r.Order {
		return fmt.Errorf("%w: base=%d order=%d", ErrBadFree, r.Base, r.Order)
	}
	delete(b.allocated, r.Base)
	b.freeCount++
	base := r.Base
	for order < b.maxOrder {
		blockSize := b.basePage << order
		// The buddy address flips the block-size bit of the offset.
		buddy := b.base + ((base - b.base) ^ blockSize)
		if !b.free[order].remove(buddy) {
			break
		}
		if buddy < base {
			base = buddy
		}
		order++
		b.coalesces++
	}
	b.free[order].add(base)
	return nil
}

// FreeBlocksAt returns the number of free blocks at the given order.
func (b *Buddy) FreeBlocksAt(order int) int {
	if order < 0 || order > b.maxOrder {
		return 0
	}
	return b.free[order].len()
}

// Fragmentation returns the free-memory fragmentation index for a target
// order: the fraction of free memory that is unusable for an allocation of
// that order because it sits in smaller blocks. 0 means every free byte is
// reachable at the target order; 1 means none is.
func (b *Buddy) Fragmentation(order int) float64 {
	if order < 0 || order > b.maxOrder {
		return 0
	}
	var usable, total int64
	for o := range b.free {
		bytes := int64(b.free[o].len()) * (b.basePage << o)
		total += bytes
		if o >= order {
			usable += bytes
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(usable)/float64(total)
}

// Stats returns operation counters: allocations, frees, splits, coalesces.
func (b *Buddy) Stats() (allocs, frees, splits, coalesces uint64) {
	return b.allocCount, b.freeCount, b.splits, b.coalesces
}

// freeList holds one order's free block bases: a set for membership and
// removal of arbitrary blocks (coalescing), beside a min-heap that yields
// the lowest base without scanning. Removal from the set leaves the heap
// entry in place; popLowest discards such stale entries when they surface,
// and compact drops them wholesale once they outnumber the live ones.
type freeList struct {
	set  map[int64]struct{}
	heap []int64 // min-heap of bases; may hold stale and duplicate entries
}

func (l *freeList) len() int { return len(l.set) }

func (l *freeList) add(base int64) {
	l.set[base] = struct{}{}
	l.heap = append(l.heap, base)
	// Sift up.
	h := l.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	if len(l.heap) > 2*len(l.set)+64 {
		l.compact()
	}
}

// remove deletes base from the list, reporting whether it was free.
func (l *freeList) remove(base int64) bool {
	if _, ok := l.set[base]; !ok {
		return false
	}
	delete(l.set, base)
	return true
}

// popLowest removes and returns the lowest free base; the list must be
// non-empty.
func (l *freeList) popLowest() int64 {
	for {
		base := l.heap[0]
		last := len(l.heap) - 1
		l.heap[0] = l.heap[last]
		l.heap = l.heap[:last]
		// Sift down.
		h := l.heap
		for i := 0; ; {
			small := i
			if c := 2*i + 1; c < len(h) && h[c] < h[small] {
				small = c
			}
			if c := 2*i + 2; c < len(h) && h[c] < h[small] {
				small = c
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
		if l.remove(base) {
			return base
		}
	}
}

// compact rebuilds the heap from its live entries. A sorted slice is a
// valid min-heap.
func (l *freeList) compact() {
	slices.Sort(l.heap)
	l.heap = slices.Compact(l.heap)
	l.heap = slices.DeleteFunc(l.heap, func(base int64) bool {
		_, ok := l.set[base]
		return !ok
	})
}
