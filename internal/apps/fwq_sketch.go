package apps

import (
	"slices"
	"sort"
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
	clean, perturbed := fwqWalk(cfg, func(core int) []fwqEvent {
		ivs := tl.ForCPU(core)
		evs := make([]fwqEvent, len(ivs))
		for i, iv := range ivs {
			evs[i] = fwqEvent{start: iv.Start, len: iv.Len}
		}
		return evs
	}, nil)
	return newFWQSketch(cfg.Work, clean, perturbed)
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

// fwqWalk runs the benchmark on every core of cfg over events(core), the
// core's interruptions in start order. It returns how many iterations no
// interruption touched, each of which lasts exactly cfg.Work, and appends
// the duration of every other iteration to perturbed, core by core in time
// order. cfg must be valid.
func fwqWalk(cfg FWQConfig, events func(core int) []fwqEvent, perturbed []time.Duration) (int64, []time.Duration) {
	deadline := sim.Time(cfg.Duration)
	var clean int64
	for _, core := range cfg.Cores {
		evs := events(core)
		t := sim.Time(0)
		idx := 0
		for t < deadline {
			// Skip interruptions that already ended (consumed by a cascade).
			for idx < len(evs) && evs[idx].end() <= t {
				idx++
			}
			if idx == len(evs) || evs[idx].start >= deadline {
				// No more noise before the deadline: the rest are clean.
				clean += int64((deadline - t + sim.Time(cfg.Work) - 1) / sim.Time(cfg.Work))
				break
			}
			// Fast-forward over iterations that finish before the next
			// interruption starts.
			if gap := evs[idx].start.Sub(t); gap >= cfg.Work {
				k := int64(gap / cfg.Work)
				clean += k
				t = t.Add(time.Duration(k) * cfg.Work)
				continue
			}
			// This iteration overlaps noise: simulate it as
			// noise.Timeline.Advance does, from where its search starts (End
			// is not monotone in start order, so that need not be idx).
			end := t.Add(cfg.Work)
			for i := sort.Search(len(evs), func(i int) bool { return evs[i].end() > t }); i < len(evs) && evs[i].start < end; i++ {
				stolen := evs[i].len
				if evs[i].start < t {
					if stolen = evs[i].end().Sub(t); stolen <= 0 {
						continue
					}
				}
				end = end.Add(stolen)
			}
			perturbed = append(perturbed, end.Sub(t))
			t = end
		}
	}
	return clean, perturbed
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
}

// fwqRun is one source's events on a core; evs[next:end] are not merged yet.
type fwqRun struct{ next, end int }

func newCoreEvents(p *noise.Profile, cores []int) *coreEvents {
	c := &coreEvents{gen: p.Generator(), cores: cores,
		evs: make([][]fwqEvent, slices.Max(cores)+1), rank: make([]int, len(p.Sources))}
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
// rng. The generator still tallies the events on other cores.
func (c *coreEvents) node(horizon time.Duration, rng *sim.Rand) {
	for _, core := range c.cores {
		c.evs[core] = c.evs[core][:0]
	}
	c.gen.VisitNode(horizon, rng, c.add)
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

// newFWQSketch builds a sketch from a walk's clean count and perturbed
// durations; it keeps no reference to perturbed.
func newFWQSketch(work time.Duration, clean int64, perturbed []time.Duration) (*FWQSketch, error) {
	iters := append([]time.Duration(nil), perturbed...)
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
	total := clean + int64(len(perturbed))
	a.Rate = a.Rate * float64(len(iters)) / float64(total)
	a.N = int(total)
	return &FWQSketch{
		Analysis: a,
		Dist:     noise.NewIterationDist(work, clean, perturbed),
	}, nil
}

// FWQSketchAcrossNodes runs the sketch on n independent nodes with the same
// per-node RNG streams as FWQAcrossNodes. The nodes share one generator
// and its buffers, no timeline is built, and the noise counters of all of
// them are published to the profile's sink once.
func FWQSketchAcrossNodes(cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64) ([]*FWQSketch, error) {
	if nodes <= 0 || cfg.Work <= 0 || cfg.Duration <= 0 || len(cfg.Cores) == 0 {
		return nil, ErrBadFWQConfig
	}
	p := prof.NoiseProfile()
	c := newCoreEvents(p, cfg.Cores)
	base, node := sim.NewRand(seed), sim.NewRand(0)
	var perturbed []time.Duration
	out := make([]*FWQSketch, 0, nodes)
	for n := 0; n < nodes; n++ {
		base.DeriveInto(node, int64(n))
		c.node(cfg.Duration, node)
		var clean int64
		clean, perturbed = fwqWalk(cfg, c.sorted, perturbed[:0])
		sk, err := newFWQSketch(cfg.Work, clean, perturbed)
		if err != nil {
			return nil, err
		}
		out = append(out, sk)
	}
	c.gen.Publish(p.Sink)
	return out, nil
}
