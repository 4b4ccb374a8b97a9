// Package apps contains the benchmark and application workload models used
// in the paper's evaluation: the LLNL Fixed Work Quanta (FWQ) noise
// benchmark and proxies for the six applications (AMG2013, MILC, LULESH,
// LQCD, GeoFEM, GAMERA).
package apps

import (
	"errors"
	"slices"
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

// FWQCore is one measured core's FWQ run, as the walk leaves it: the
// count of iterations no interruption touched, each of which lasts exactly
// Work, and every other iteration's duration and place among the core's
// iterations, in time order.
type FWQCore struct {
	Work      time.Duration
	Clean     int64
	Perturbed []time.Duration
	At        []int64
}

// fwqWalk runs the benchmark on one core over evs, the core's interruptions
// in start order, from 0 until horizon. It returns how many iterations no
// interruption touched, each of which lasts exactly work, and appends every
// other iteration's duration to perturbed and its place among the core's
// iterations to at, in time order.
func fwqWalk(work, horizon time.Duration, evs []fwqEvent, perturbed []time.Duration, at []int64) (int64, []time.Duration, []int64) {
	p0 := len(perturbed)
	deadline := sim.Time(horizon)
	var clean int64
	t := sim.Time(0)
	idx := 0
	for t < deadline {
		// Skip interruptions that already ended (consumed by a cascade).
		for idx < len(evs) && evs[idx].end() <= t {
			idx++
		}
		if idx == len(evs) || evs[idx].start >= deadline {
			// No more noise before the deadline: the rest are clean.
			clean += int64((deadline - t + sim.Time(work) - 1) / sim.Time(work))
			break
		}
		// Fast-forward over iterations that finish before the next
		// interruption starts.
		if gap := evs[idx].start.Sub(t); gap >= work {
			k := int64(gap / work)
			clean += k
			t = t.Add(time.Duration(k) * work)
			continue
		}
		// This iteration overlaps noise: simulate it as
		// noise.Timeline.Advance does, from where its search starts (End is
		// not monotone in start order, so that need not be idx).
		end := t.Add(work)
		for i := sort.Search(len(evs), func(i int) bool { return evs[i].end() > t }); i < len(evs) && evs[i].start < end; i++ {
			stolen := evs[i].len
			if evs[i].start < t {
				if stolen = evs[i].end().Sub(t); stolen <= 0 {
					continue
				}
			}
			end = end.Add(stolen)
		}
		at = append(at, clean+int64(len(perturbed)-p0))
		perturbed = append(perturbed, end.Sub(t))
		t = end
	}
	return clean, perturbed, at
}

// Analysis returns the core's metrics, field for field those
// noise.Summarize computes over all its iterations in time order. No
// iteration is shorter than Work, so a core with a clean iteration has
// Tmin = Work, and each clean iteration adds exactly 0.0 to the Eq. 2 sum.
func (c *FWQCore) Analysis() noise.Analysis {
	a := noise.Analysis{N: int(c.Clean) + len(c.Perturbed), Tmin: c.Work, Tmax: c.Work}
	if c.Clean == 0 {
		a.Tmin = slices.Min(c.Perturbed)
	}
	for _, t := range c.Perturbed {
		a.Tmax = max(a.Tmax, t)
	}
	a.MaxNoise = a.Tmax - a.Tmin
	sum := 0.0
	for _, t := range c.Perturbed {
		sum += float64(t-a.Tmin) / float64(a.Tmin)
	}
	a.Rate = sum / float64(a.N)
	return a
}

// Series calls emit(i, us) in time order for each of the core's
// iterations, placed at i = base, base+1, ..., whose place is a multiple of
// every or whose noise length over the core's Tmin, us µs, exceeds above
// (not negative): Figure 3's thinned noise-length series. A clean
// iteration's noise length is 0, as Tmin = Work when there is one.
func (c *FWQCore) Series(base, every int64, above float64, emit func(i int64, us float64)) {
	tmin := c.Analysis().Tmin
	micros := func(t time.Duration) float64 { return float64(t-tmin) / float64(time.Microsecond) }
	i, end := base, base+c.Clean+int64(len(c.Perturbed))
	for k := 0; k <= len(c.Perturbed); k++ {
		next := end
		if k < len(c.At) {
			next = base + c.At[k]
		}
		// The clean iterations before the next perturbed one.
		for i = (i + every - 1) / every * every; i < next; i += every {
			emit(i, micros(c.Work))
		}
		if i = next; k < len(c.Perturbed) {
			if us := micros(c.Perturbed[k]); i%every == 0 || us > above {
				emit(i, us)
			}
			i++
		}
	}
}

// NodeAnalysis merges a node's core analyses in order, as FWQRun.Analyze
// merges a timeline run's.
func NodeAnalysis(cores []FWQCore) (noise.Analysis, error) {
	as := make([]noise.Analysis, len(cores))
	for i := range cores {
		as[i] = cores[i].Analysis()
	}
	return noise.Merge(as)
}

// FWQNodes runs the benchmark on n independent nodes of one OS profile and
// calls visit with each node's runs, in cfg.Cores order; a visit error
// stops the loop and is returned. Node n draws from stream n derived from
// seed, whatever the node count. No timeline is built, the runs are reused
// for the next node, and the noise counters of every node walked go to the
// profile's sink once, at the end.
func FWQNodes(cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64, visit func(cores []FWQCore) error) error {
	if nodes <= 0 || cfg.Work <= 0 || cfg.Duration <= 0 || len(cfg.Cores) == 0 {
		return ErrBadFWQConfig
	}
	p := prof.NoiseProfile()
	c := newCoreEvents(p, cfg.Cores)
	defer c.gen.Publish(p.Sink)
	base, rng := sim.NewRand(seed), sim.NewRand(0)
	cores := make([]FWQCore, len(cfg.Cores))
	for n := 0; n < nodes; n++ {
		base.DeriveInto(rng, int64(n))
		c.node(cfg.Work, cfg.Duration, rng)
		if err := visit(c.walks(cfg.Work, cores)); err != nil {
			return err
		}
	}
	return nil
}

// FWQNoise runs the benchmark as FWQNodes does and merges every node's
// analysis, each node's cores first: the machine-level view of Table 2.
func FWQNoise(cfg FWQConfig, prof NoiseProfiler, nodes int, seed int64) (noise.Analysis, error) {
	var as []noise.Analysis
	err := FWQNodes(cfg, prof, nodes, seed, func(cores []FWQCore) error {
		a, err := NodeAnalysis(cores)
		as = append(as, a)
		return err
	})
	if err != nil {
		return noise.Analysis{}, err
	}
	return noise.Merge(as)
}
