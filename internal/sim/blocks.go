package sim

import "sync"

// InBlocks splits [0, n) into b = max(1, min(blocks, n)) contiguous blocks,
// block i being [n*i/b, n*(i+1)/b), and runs do on each: block 0 on the
// calling goroutine, every other on its own, all joined before return. A
// panic in any block is re-raised on the calling goroutine after the join,
// so a caller that recovers panics (the shard runner, a sweep trial)
// reports it instead of the process dying. Callers that keep per-block
// state index it by block; a caller whose blocks each replay their part of
// a seeded sequence (see Rand.Skip) gets results that do not depend on b.
func InBlocks(n, blocks int, do func(block, lo, hi int)) {
	b := max(1, min(blocks, n))
	panics := make([]any, b)
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		do(i, n*i/b, n*(i+1)/b)
	}
	var wg sync.WaitGroup
	for i := 1; i < b; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
