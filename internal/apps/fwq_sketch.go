package apps

import (
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
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
	clean, perturbed := fwqWalk(cfg, tl, nil)
	return newFWQSketch(cfg.Work, clean, perturbed)
}

// fwqWalk runs the benchmark on every core of cfg over tl's interruption
// stream. It returns how many iterations no interruption touched, each of
// which lasts exactly cfg.Work, and appends the duration of every other
// iteration to perturbed, core by core in time order. cfg must be valid.
func fwqWalk(cfg FWQConfig, tl *noise.Timeline, perturbed []time.Duration) (int64, []time.Duration) {
	deadline := sim.Time(cfg.Duration)
	var clean int64
	for _, core := range cfg.Cores {
		ivs := tl.ForCPU(core)
		t := sim.Time(0)
		idx := 0
		for t < deadline {
			// Skip interruptions that already ended (consumed by a cascade).
			for idx < len(ivs) && ivs[idx].End() <= t {
				idx++
			}
			if idx == len(ivs) || ivs[idx].Start >= deadline {
				// No more noise before the deadline: the rest are clean.
				clean += int64((deadline - t + sim.Time(cfg.Work) - 1) / sim.Time(cfg.Work))
				break
			}
			// Fast-forward over iterations that finish before the next
			// interruption starts.
			if gap := ivs[idx].Start.Sub(t); gap >= cfg.Work {
				k := int64(gap / cfg.Work)
				clean += k
				t = t.Add(time.Duration(k) * cfg.Work)
				continue
			}
			// This iteration overlaps noise: simulate it precisely
			// (Advance handles cascading interruptions).
			end := tl.Advance(core, t, cfg.Work)
			perturbed = append(perturbed, end.Sub(t))
			t = end
		}
	}
	return clean, perturbed
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
// per-node RNG streams as FWQAcrossNodes. The nodes share one generator,
// timeline and buffers, and the noise counters of all of them are
// published to the calling goroutine's sink once.
func FWQSketchAcrossNodes(cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64) ([]*FWQSketch, error) {
	if nodes <= 0 || cfg.Work <= 0 || cfg.Duration <= 0 || len(cfg.Cores) == 0 {
		return nil, ErrBadFWQConfig
	}
	g := prof.NoiseProfile().Generator()
	base := sim.NewRand(seed)
	var (
		tl        noise.Timeline
		events    []noise.Interruption
		perturbed []time.Duration
	)
	out := make([]*FWQSketch, 0, nodes)
	for n := 0; n < nodes; n++ {
		events = g.NodeInto(&tl, events, cfg.Duration, base.Derive(int64(n)))
		var clean int64
		clean, perturbed = fwqWalk(cfg, &tl, perturbed[:0])
		sk, err := newFWQSketch(cfg.Work, clean, perturbed)
		if err != nil {
			return nil, err
		}
		out = append(out, sk)
	}
	g.Publish(telemetry.Default().Registry())
	return out, nil
}
