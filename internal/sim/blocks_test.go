package sim

import (
	"fmt"
	"testing"
)

// TestInBlocksCoversRangeInOrder checks the split: b = max(1, min(blocks,
// n)) contiguous blocks that cover [0, n) once, block i being
// [n*i/b, n*(i+1)/b).
func TestInBlocksCoversRangeInOrder(t *testing.T) {
	for _, c := range []struct{ n, blocks int }{{0, 3}, {1, 4}, {7, 1}, {7, 2}, {7, 3}, {7, 5}, {7, 8}, {100, 0}} {
		b := max(1, min(c.blocks, c.n))
		seen := make([]int, c.n)
		ran := make([]bool, b)
		InBlocks(c.n, c.blocks, func(block, lo, hi int) {
			ran[block] = true
			if lo != c.n*block/b || hi != c.n*(block+1)/b {
				t.Errorf("n=%d blocks=%d: block %d is [%d, %d)", c.n, c.blocks, block, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for block, ok := range ran {
			if !ok {
				t.Fatalf("n=%d blocks=%d: block %d never ran", c.n, c.blocks, block)
			}
		}
		for i, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d blocks=%d: index %d covered %d times", c.n, c.blocks, i, k)
			}
		}
	}
}

// TestInBlocksReraisesPanicOnCaller is the regression test for a panic in
// a block other than the first: it must reach the caller after the join,
// where a recover can report it, instead of killing the process from a
// goroutine nobody recovers on.
func TestInBlocksReraisesPanicOnCaller(t *testing.T) {
	for _, bad := range []int{1, 3} {
		done := make([]bool, 4)
		got := func() (p any) {
			defer func() { p = recover() }()
			InBlocks(8, 4, func(block, lo, hi int) {
				if block == bad {
					panic(fmt.Sprintf("block %d failed", block))
				}
				done[block] = true
			})
			return nil
		}()
		if want := fmt.Sprintf("block %d failed", bad); got != want {
			t.Fatalf("recovered %v on the caller, want %q", got, want)
		}
		for block, ok := range done {
			if block != bad && !ok {
				t.Fatalf("block %d did not finish before the panic was re-raised", block)
			}
		}
	}
}
