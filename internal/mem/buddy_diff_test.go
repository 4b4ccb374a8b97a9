package mem

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refBuddy is the reference lowest-address buddy allocator: per-order free
// sets scanned in full for their lowest base on every allocation. Buddy
// must make exactly its choices.
type refBuddy struct {
	basePage  int64
	maxOrder  int
	base      int64
	free      []map[int64]struct{}
	allocated map[int64]int

	allocs, frees, splits, coalesces uint64
}

func newRefBuddy(base, size, basePage int64, maxOrder int) *refBuddy {
	r := &refBuddy{basePage: basePage, maxOrder: maxOrder, base: base,
		free: make([]map[int64]struct{}, maxOrder+1), allocated: map[int64]int{}}
	for i := range r.free {
		r.free[i] = map[int64]struct{}{}
	}
	for off := int64(0); off < size; off += basePage << maxOrder {
		r.free[maxOrder][base+off] = struct{}{}
	}
	return r
}

func (r *refBuddy) allocOrder(order int) (Region, error) {
	cur := order
	for cur <= r.maxOrder && len(r.free[cur]) == 0 {
		cur++
	}
	if cur > r.maxOrder {
		return Region{}, ErrOutOfMemory
	}
	best := int64(math.MaxInt64)
	for base := range r.free[cur] {
		best = min(best, base)
	}
	delete(r.free[cur], best)
	for cur > order {
		cur--
		r.splits++
		r.free[cur][best+(r.basePage<<cur)] = struct{}{}
	}
	r.allocated[best] = order
	r.allocs++
	return Region{Base: best, Bytes: r.basePage << order, Order: order}, nil
}

func (r *refBuddy) release(reg Region) error {
	order, ok := r.allocated[reg.Base]
	if !ok || order != reg.Order {
		return ErrBadFree
	}
	delete(r.allocated, reg.Base)
	r.frees++
	base := reg.Base
	for order < r.maxOrder {
		buddy := r.base + ((base - r.base) ^ (r.basePage << order))
		if _, ok := r.free[order][buddy]; !ok {
			break
		}
		delete(r.free[order], buddy)
		base = min(base, buddy)
		order++
		r.coalesces++
	}
	r.free[order][base] = struct{}{}
	return nil
}

func (r *refBuddy) fragmentation(order int) float64 {
	var usable, total int64
	for o, set := range r.free {
		bytes := int64(len(set)) * (r.basePage << o)
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

// TestBuddyMatchesReference drives Buddy and the reference through the same
// seeded alloc/free sequences — random interleavings, fill-then-drain
// phases that coalesce back to max-order blocks, and invalid frees — and
// requires identical regions, errors, counters and free-list shape after
// every operation.
func TestBuddyMatchesReference(t *testing.T) {
	const (
		base     = int64(3) << 40
		basePage = int64(4) << 10
		maxOrder = 6
		size     = 48 * (basePage << maxOrder)
	)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBuddy(base, size, basePage, maxOrder)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBuddy(base, size, basePage, maxOrder)
		var live []Region
		check := func(step int, op string) {
			t.Helper()
			ga, gf, gs, gc := b.Stats()
			if ga != ref.allocs || gf != ref.frees || gs != ref.splits || gc != ref.coalesces {
				t.Fatalf("seed %d step %d (%s): stats %d/%d/%d/%d, reference %d/%d/%d/%d", seed, step, op,
					ga, gf, gs, gc, ref.allocs, ref.frees, ref.splits, ref.coalesces)
			}
			for o := 0; o <= maxOrder; o++ {
				if g, w := b.FreeBlocksAt(o), len(ref.free[o]); g != w {
					t.Fatalf("seed %d step %d (%s): %d free blocks at order %d, reference %d", seed, step, op, g, o, w)
				}
				if g, w := b.Fragmentation(o), ref.fragmentation(o); g != w {
					t.Fatalf("seed %d step %d (%s): fragmentation(%d) %v, reference %v", seed, step, op, o, g, w)
				}
			}
		}
		// Phases alternate between a growing bias (fill) and a shrinking
		// one (drain), so free lists repeatedly empty and refill.
		for step := 0; step < 3000; step++ {
			allocBias := 0.8
			if (step/400)%2 == 1 {
				allocBias = 0.25
			}
			switch {
			case len(live) > 0 && rng.Float64() < 0.02:
				// Invalid free: a live region with the wrong order, or a
				// region freed twice.
				r := live[rng.Intn(len(live))]
				r.Order = (r.Order + 1) % (maxOrder + 1)
				gerr, werr := b.Free(r), ref.release(r)
				if !errors.Is(gerr, ErrBadFree) || werr == nil {
					t.Fatalf("seed %d step %d: bad free: %v, reference %v", seed, step, gerr, werr)
				}
				check(step, "bad free")
			case len(live) == 0 || rng.Float64() < allocBias:
				order := rng.Intn(maxOrder + 1)
				if rng.Intn(4) != 0 {
					order = rng.Intn(3)
				}
				got, gerr := b.AllocOrder(order)
				want, werr := ref.allocOrder(order)
				if (gerr == nil) != (werr == nil) || got != want {
					t.Fatalf("seed %d step %d: AllocOrder(%d) = %+v, %v; reference %+v, %v",
						seed, step, order, got, gerr, want, werr)
				}
				if gerr == nil {
					live = append(live, got)
				}
				check(step, "alloc")
			default:
				i := rng.Intn(len(live))
				r := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if gerr, werr := b.Free(r), ref.release(r); gerr != nil || werr != nil {
					t.Fatalf("seed %d step %d: Free(%+v) = %v, reference %v", seed, step, r, gerr, werr)
				}
				check(step, "free")
			}
		}
		for _, r := range live {
			if err := b.Free(r); err != nil {
				t.Fatal(err)
			}
		}
		if b.FreeBlocksAt(maxOrder) != int(size/(basePage<<maxOrder)) {
			t.Fatalf("seed %d: %d max-order blocks after draining everything", seed, b.FreeBlocksAt(maxOrder))
		}
	}
}
