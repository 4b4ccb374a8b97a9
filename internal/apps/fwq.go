// Package apps contains the benchmark and application workload models used
// in the paper's evaluation: the LLNL Fixed Work Quanta (FWQ) noise
// benchmark and proxies for the six applications (AMG2013, MILC, LULESH,
// LQCD, GeoFEM, GAMERA).
package apps

import (
	"context"
	"errors"
	"sort"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
)

// FWQConfig configures a Fixed Work Quanta run. FWQ performs a fixed amount
// of pure computation per loop iteration (no memory traffic, no I/O) and
// records each iteration's elapsed time; noise appears as iterations longer
// than the minimum (Sec. 6.2).
type FWQConfig struct {
	// Work is the target quantum. The paper uses ~6.5 ms, the largest value
	// below the 10 ms Linux timer period they could configure.
	Work time.Duration
	// Duration is how long the benchmark runs (the paper uses ~6-minute
	// runs, ten of them, for the full-scale profile).
	Duration time.Duration
	// Cores lists the CPUs measured; the MPI-extended version of the paper
	// measures all application cores simultaneously.
	Cores []int
}

// DefaultFWQ returns the paper's configuration for the given cores.
func DefaultFWQ(cores []int) FWQConfig {
	return FWQConfig{Work: 6500 * time.Microsecond, Duration: 6 * time.Minute, Cores: cores}
}

// ErrBadFWQConfig reports an unusable configuration.
var ErrBadFWQConfig = errors.New("apps: invalid FWQ configuration")

// FWQRun holds the per-core iteration times of one node's run.
type FWQRun struct {
	PerCore map[int][]time.Duration
}

// RunFWQ executes the benchmark against a node's interruption timeline.
func RunFWQ(cfg FWQConfig, tl *noise.Timeline) (*FWQRun, error) {
	if cfg.Work <= 0 || cfg.Duration <= 0 || len(cfg.Cores) == 0 {
		return nil, ErrBadFWQConfig
	}
	run := &FWQRun{PerCore: make(map[int][]time.Duration, len(cfg.Cores))}
	for _, core := range cfg.Cores {
		var iters []time.Duration
		t := sim.Time(0)
		deadline := sim.Time(cfg.Duration)
		for t < deadline {
			end := tl.Advance(core, t, cfg.Work)
			iters = append(iters, end.Sub(t))
			t = end
		}
		run.PerCore[core] = iters
	}
	return run, nil
}

// Analyze merges the run's per-core iteration streams into one analysis.
func (r *FWQRun) Analyze() (noise.Analysis, error) {
	var as []noise.Analysis
	for _, core := range sortedKeys(r.PerCore) {
		a, err := noise.Analyze(r.PerCore[core])
		if err != nil {
			return noise.Analysis{}, err
		}
		as = append(as, a)
	}
	return noise.Merge(as)
}

func sortedKeys(m map[int][]time.Duration) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// NoiseProfiler abstracts an OS model that can produce a node noise profile;
// both linux.Kernel and mckernel.Instance satisfy it.
type NoiseProfiler interface {
	NoiseProfile() *noise.Profile
}

// FWQAcrossNodes runs FWQ on n independent nodes of the same OS profile,
// deriving per-node RNG streams from the base seed (node subsets are stable
// per sim.Rand.Derive semantics). It returns one analysis per node.
func FWQAcrossNodes(cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64) ([]noise.Analysis, []*FWQRun, error) {
	return FWQAcrossNodesContext(context.Background(), cfg, prof, nodes, seed)
}

// FWQAcrossNodesContext is FWQAcrossNodes with cooperative cancellation: the
// context is checked between nodes, and on cancellation the analyses of the
// nodes already simulated are returned alongside the context's error. Node n
// always sees the same derived RNG stream, so a canceled run's partial
// results are a prefix of the full run's.
func FWQAcrossNodesContext(ctx context.Context, cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64) ([]noise.Analysis, []*FWQRun, error) {
	if nodes <= 0 {
		return nil, nil, ErrBadFWQConfig
	}
	p := prof.NoiseProfile()
	base := sim.NewRand(seed)
	analyses := make([]noise.Analysis, 0, nodes)
	runs := make([]*FWQRun, 0, nodes)
	for n := 0; n < nodes; n++ {
		if err := ctx.Err(); err != nil {
			return analyses, runs, err
		}
		tl := p.Timeline(cfg.Duration, base.Derive(int64(n)))
		run, err := RunFWQ(cfg, tl)
		if err != nil {
			return nil, nil, err
		}
		a, err := run.Analyze()
		if err != nil {
			return nil, nil, err
		}
		analyses = append(analyses, a)
		runs = append(runs, run)
	}
	return analyses, runs, nil
}
