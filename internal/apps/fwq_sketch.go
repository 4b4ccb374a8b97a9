package apps

import (
	"cmp"
	"slices"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
)

// FWQSketch is the memory-efficient FWQ result for one node: per-core noise
// analyses plus a compressed iteration distribution. Identical in content to
// RunFWQ's output but O(noise events) in space instead of O(iterations),
// enabling the machine-scale sweeps behind Figure 4.
type FWQSketch struct {
	Analysis noise.Analysis
	Dist     *noise.IterationDist
}

// RunFWQSketch executes the benchmark against a node's timeline without
// materializing clean iterations: it walks the interruption stream and only
// simulates the iterations an interruption lands in.
func RunFWQSketch(cfg FWQConfig, tl *noise.Timeline) (*FWQSketch, error) {
	if cfg.Work <= 0 || cfg.Duration <= 0 || len(cfg.Cores) == 0 {
		return nil, ErrBadFWQConfig
	}
	cores := make([]FWQCore, len(cfg.Cores))
	for i, core := range cfg.Cores {
		ivs := tl.ForCPU(core)
		evs := make([]fwqEvent, len(ivs))
		for j, iv := range ivs {
			evs[j] = fwqEvent{start: iv.Start, len: iv.Len}
		}
		c := &cores[i]
		c.Work = cfg.Work
		c.Clean, c.Perturbed, c.At = fwqWalk(cfg.Work, cfg.Duration, evs, nil, nil)
	}
	return newFWQSketch(cfg.Work, cores)
}

// fwqEvent is one interruption of a measured core as the FWQ walk sees it:
// its start, its length and the place of its source's name in name order.
type fwqEvent struct {
	start sim.Time
	len   time.Duration
	rank  int
}

func (e fwqEvent) end() sim.Time { return e.start.Add(e.len) }

// before reports whether e comes before o in noise.Timeline's order: by
// start, then by source name.
func (e fwqEvent) before(o fwqEvent) bool {
	return e.start < o.start || e.start == o.start && e.rank < o.rank
}

// coreEvents draws nodes' interruptions from one profile and keeps only
// those on the measured cores, straight from the noise kernel's batches.
// It belongs to one goroutine.
type coreEvents struct {
	gen    *noise.Generator
	cores  []int        // measured, in walk order; none negative
	evs    [][]fwqEvent // by core: each source's run in turn; nil if unmeasured
	rank   []int        // per source: its name's place in name order
	runs   []fwqRun
	merged []fwqEvent
	// The last node's walk: by place in cores, each core's clean count and
	// the end of its part of perturbed and at, which hold every core's
	// perturbed iterations in turn.
	clean     []int64
	ends      []int
	perturbed []time.Duration
	at        []int64
}

// fwqRun is one source's events on a core; evs[next:end] are not merged yet.
type fwqRun struct{ next, end int }

func newCoreEvents(p *noise.Profile, cores []int) *coreEvents {
	c := &coreEvents{gen: p.Generator(), cores: cores, evs: make([][]fwqEvent, slices.Max(cores)+1),
		rank: make([]int, len(p.Sources)), clean: make([]int64, len(cores)), ends: make([]int, len(cores))}
	// Few cores see more than a handful of events in a short run.
	buf := make([]fwqEvent, 8*len(cores))
	for i, core := range cores {
		c.evs[core] = buf[8*i : 8*i : 8*i+8]
	}
	for i, s := range p.Sources {
		for _, o := range p.Sources {
			if o.Name < s.Name {
				c.rank[i]++
			}
		}
	}
	return c
}

// node replaces c's events with one node's over [0, horizon), drawn from
// rng, and walks the benchmark with quantum work on every measured core
// over them. The generator still tallies the events on other cores.
func (c *coreEvents) node(work, horizon time.Duration, rng *sim.Rand) {
	for _, core := range c.cores {
		c.evs[core] = c.evs[core][:0]
	}
	c.gen.VisitNode(horizon, rng, c.add)
	perturbed, at := c.perturbed[:0], c.at[:0]
	// A core no event reached runs every iteration clean, as fwqWalk
	// walks an empty slice.
	quiet := int64((horizon + work - 1) / work)
	for i, core := range c.cores {
		if len(c.evs[core]) == 0 {
			c.clean[i] = quiet
		} else {
			c.clean[i], perturbed, at = fwqWalk(work, horizon, c.sorted(core), perturbed, at)
		}
		c.ends[i] = len(perturbed)
	}
	c.perturbed, c.at = perturbed, at
}

// walks fills cores, one per measured core, with the last node's walk and
// returns it; the runs share c's buffers until the next node.
func (c *coreEvents) walks(work time.Duration, cores []FWQCore) []FWQCore {
	start := 0
	for i, end := range c.ends {
		cores[i] = FWQCore{Work: work, Clean: c.clean[i], Perturbed: c.perturbed[start:end:end], At: c.at[start:end:end]}
		start = end
	}
	return cores
}

func (c *coreEvents) add(b *noise.Batch) {
	for k, start := range b.Start {
		for _, core := range b.Hits(k) {
			if core >= 0 && core < len(c.evs) && c.evs[core] != nil {
				c.evs[core] = append(c.evs[core], fwqEvent{start: start, len: b.Len[k], rank: c.rank[b.Source]})
			}
		}
	}
}

// sorted returns core's events in noise.Timeline's order. Each source's
// run is in start order already, so it merges the runs instead of sorting.
func (c *coreEvents) sorted(core int) []fwqEvent {
	evs, runs := c.evs[core], c.runs[:0]
	for i := range evs {
		if i == 0 || evs[i].rank != evs[i-1].rank {
			runs = append(runs, fwqRun{i, i})
		}
		runs[len(runs)-1].end++
	}
	if c.runs = runs; len(runs) < 2 {
		return evs
	}
	out := c.merged[:0]
	for len(out) < len(evs) {
		best := -1
		for r, run := range runs {
			if run.next < run.end && (best < 0 || evs[run.next].before(evs[runs[best].next])) {
				best = r
			}
		}
		out = append(out, evs[runs[best].next])
		runs[best].next++
	}
	c.merged = out
	return out
}

// newFWQSketch builds a node's sketch from its cores' runs, perturbed
// iterations core by core; it keeps no reference to them.
func newFWQSketch(work time.Duration, cores []FWQCore) (*FWQSketch, error) {
	var clean int64
	var iters []time.Duration
	for _, c := range cores {
		clean += c.Clean
		iters = append(iters, c.Perturbed...)
	}
	total := clean + int64(len(iters))
	dist := noise.NewIterationDist(work, clean, iters)
	// Analysis needs Tmin; clean iterations all equal work.
	if clean > 0 {
		iters = append(iters, work)
	}
	a, err := noise.Analyze(iters)
	if err != nil {
		return nil, err
	}
	// Correct the rate for the clean iterations the analysis did not see:
	// Eq. 2 averages (Ti - Tmin)/Tmin over all n iterations.
	a.Rate = a.Rate * float64(len(iters)) / float64(total)
	a.N = int(total)
	return &FWQSketch{Analysis: a, Dist: dist}, nil
}

// FWQWorstSketches runs the sketch on n independent nodes, walked as
// FWQNodes walks them, and returns the sketches of the k nodes that
// noise.WorstBy ranks worst by total noise, in its order: the paper's
// in-situ selection (Sec. 6.3). A node whose total is below the k-th
// largest total walked so far can never be among them, so its sketch is
// dropped once more than 2k are held; memory grows with k, not with n.
func FWQWorstSketches(cfg FWQConfig, prof NoiseProfiler, nodes, k int, seed int64) ([]*FWQSketch, error) {
	type candidate struct {
		node  int
		total time.Duration
		sk    *FWQSketch
	}
	var (
		totals []noise.Analysis // each node's total noise, as WorstBy sums it
		top    []time.Duration  // the k largest totals so far, descending
		kept   []candidate      // in node order
	)
	below := func(t time.Duration) bool { return k <= 0 || len(top) == k && t < top[k-1] }
	err := FWQNodes(cfg, prof, nodes, seed, func(cores []FWQCore) error {
		sk, err := newFWQSketch(cfg.Work, cores)
		if err != nil {
			return err
		}
		var total time.Duration
		for _, l := range sk.Analysis.Lengths {
			total += l
		}
		if k > 0 {
			i, _ := slices.BinarySearchFunc(top, total, func(a, b time.Duration) int { return cmp.Compare(b, a) })
			top = slices.Insert(top, i, total)[:min(len(top)+1, k)]
		}
		if !below(total) {
			kept = append(kept, candidate{len(totals), total, sk})
		}
		if len(kept) > 2*k {
			kept = slices.DeleteFunc(kept, func(c candidate) bool { return below(c.total) })
		}
		totals = append(totals, noise.Analysis{Lengths: []time.Duration{total}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	worst := noise.WorstBy(totals, k)
	out := make([]*FWQSketch, len(worst))
	for i, n := range worst {
		j, _ := slices.BinarySearchFunc(kept, n, func(c candidate, n int) int { return cmp.Compare(c.node, n) })
		out[i] = kept[j].sk
	}
	return out, nil
}
