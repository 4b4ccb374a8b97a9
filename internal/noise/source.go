package noise

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// Interruption is one episode of stolen CPU time on one core.
type Interruption struct {
	Start  sim.Time
	Len    time.Duration
	CPU    int
	Source string
}

// End returns the instant the interruption finishes.
func (iv Interruption) End() sim.Time { return iv.Start.Add(iv.Len) }

// Targeting selects which cores a source's events land on.
type Targeting int

const (
	// TargetOne lands every event on one fixed core (a bound daemon).
	TargetOne Targeting = iota
	// TargetRoundRobin spreads events across the target cores in turn
	// (irqbalance-style spreading).
	TargetRoundRobin
	// TargetRandom picks a uniformly random target core per event (unbound
	// kworker placement).
	TargetRandom
	// TargetAll hits every target core simultaneously with the same event
	// (broadcast TLBI, global IPI-based PMU reads).
	TargetAll
)

// Source describes one noise generator: when events happen and how long they
// steal the CPU. Interval and length distributions are lognormal around the
// configured means, matching the heavy-tailed FWQ traces in the paper, with
// an optional Pareto tail for the rare extreme events that dominate
// max-noise-length statistics.
type Source struct {
	Name  string
	Cores []int // candidate target cores
	Mode  Targeting

	Every      time.Duration // mean inter-arrival time
	EveryCV    float64       // coefficient of variation of the interval (0 = periodic)
	Length     time.Duration // mean stolen time per event
	LengthCV   float64       // spread of the length distribution
	TailProb   float64       // probability an event comes from the Pareto tail
	TailFactor float64       // tail event length multiplier (xm = Length*TailFactor)
	TailAlpha  float64       // Pareto shape; 0 selects the default 1.8
	Disabled   bool
}

// Validate reports configuration errors.
func (s *Source) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("noise: source without name")
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("noise: source %q has no target cores", s.Name)
	}
	if s.Every <= 0 {
		return fmt.Errorf("noise: source %q has non-positive interval", s.Name)
	}
	if s.Length <= 0 {
		return fmt.Errorf("noise: source %q has non-positive length", s.Name)
	}
	if s.TailProb < 0 || s.TailProb > 1 {
		return fmt.Errorf("noise: source %q tail probability %v out of range", s.Name, s.TailProb)
	}
	if s.TailProb > 0 && s.TailFactor <= 0 {
		// Pareto(0, alpha) is 0: every tail event would silently become a
		// zero-length interruption.
		return fmt.Errorf("noise: source %q has tail probability %v but non-positive tail factor %v",
			s.Name, s.TailProb, s.TailFactor)
	}
	return nil
}

// sampler is a Source with its draw distributions resolved once, so that
// generating many nodes' events from one profile repeats no per-draw setup.
// It draws exactly what, and in the order, the source's definition implies.
type sampler struct {
	src              *Source
	interval, length sim.LogNormalDist
	tailAlpha        float64
}

func (s *Source) sampler() sampler {
	alpha := s.TailAlpha
	if alpha <= 0 {
		alpha = 1.8
	}
	return sampler{
		src:       s,
		interval:  sim.NewLogNormalDist(float64(s.Every), s.EveryCV),
		length:    sim.NewLogNormalDist(float64(s.Length), s.LengthCV),
		tailAlpha: alpha,
	}
}

func (g *sampler) sampleInterval(rng *sim.Rand) time.Duration {
	if g.src.EveryCV <= 0 {
		return g.src.Every
	}
	return max(time.Duration(g.interval.Sample(rng)), time.Nanosecond)
}

func (g *sampler) sampleLength(rng *sim.Rand) time.Duration {
	s := g.src
	if s.TailProb > 0 && rng.Bernoulli(s.TailProb) {
		return time.Duration(rng.Pareto(float64(s.Length)*s.TailFactor, g.tailAlpha))
	}
	if s.LengthCV <= 0 {
		return s.Length
	}
	return max(time.Duration(g.length.Sample(rng)), time.Nanosecond)
}

// appendEvents appends the source's interruptions over [0, horizon), drawn
// from rng, to out in start order.
func (g *sampler) appendEvents(out []Interruption, horizon time.Duration, rng *sim.Rand) []Interruption {
	s := g.src
	if s.Disabled {
		return out
	}
	rr := 0
	// First arrival is uniform within one interval so independent sources
	// are not phase-aligned at t=0.
	t := sim.Time(rng.DurationUniform(0, s.Every))
	for t < sim.Time(horizon) {
		length := g.sampleLength(rng)
		switch s.Mode {
		case TargetAll:
			for _, c := range s.Cores {
				out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
			}
		case TargetRoundRobin:
			c := s.Cores[rr%len(s.Cores)]
			rr++
			out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
		case TargetRandom:
			c := s.Cores[rng.Intn(len(s.Cores))]
			out = append(out, Interruption{Start: t, Len: length, CPU: c, Source: s.Name})
		default: // TargetOne
			out = append(out, Interruption{Start: t, Len: length, CPU: s.Cores[0], Source: s.Name})
		}
		t = t.Add(g.sampleInterval(rng))
	}
	return out
}

// Profile is a node's complete noise description: the set of active sources.
type Profile struct {
	Sources []*Source
	// Subsystem labels the owning OS model ("linux", "mckernel") so the
	// telemetry counters this profile emits are attributable; empty means
	// the generic "noise" namespace.
	Subsystem string
}

// Add appends a source after validation. Source names must be unique
// within a profile: a source's name picks its RNG stream, its telemetry
// counter and its place among same-instant events on a core, so two
// same-named sources would be perfectly correlated, share one counter and
// interleave in no defined order.
func (p *Profile) Add(s *Source) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if p.ByName(s.Name) != nil {
		return fmt.Errorf("noise: profile already has a source named %q", s.Name)
	}
	p.Sources = append(p.Sources, s)
	return nil
}

// MustAdd appends a source and panics on configuration errors; used by the
// kernel models whose source definitions are static.
func (p *Profile) MustAdd(s *Source) {
	if err := p.Add(s); err != nil {
		panic(err)
	}
}

// ByName returns the named source or nil.
func (p *Profile) ByName(name string) *Source {
	for _, s := range p.Sources {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Timeline generates all interruptions over [0, horizon) grouped per core.
// Each source draws from an independent derived RNG stream, so disabling one
// source does not perturb the others' draws — required for the Table 2
// one-countermeasure-at-a-time methodology to isolate effects.
func (p *Profile) Timeline(horizon time.Duration, rng *sim.Rand) *Timeline {
	g := p.Generator()
	tl := &Timeline{}
	if len(g.NodeInto(tl, nil, horizon, rng)) > 0 {
		g.Publish(telemetry.Default().Registry())
	}
	return tl
}

// Generator draws node timelines from one profile with every source's
// distributions resolved once. Callers that only aggregate the events (the
// BSP step sampler) use it directly instead of building a Timeline per
// node. It tallies what it generates until Publish, and reuses its
// per-source streams from node to node, so it belongs to one goroutine.
type Generator struct {
	samplers []sampler
	counters []string // per source: <subsystem>.noise.events.<source>
	stolenNS string   // <subsystem>.noise.stolen_ns
	events   []int64  // per source, since the last Publish
	stolen   time.Duration
	rngs     []*sim.Rand // per source, reseeded for every node
}

// Generator returns a generator for the profile's current sources.
func (p *Profile) Generator() *Generator {
	sub := p.Subsystem
	if sub == "" {
		sub = "noise"
	}
	g := &Generator{
		samplers: make([]sampler, len(p.Sources)),
		counters: make([]string, len(p.Sources)),
		stolenNS: sub + ".noise.stolen_ns",
		events:   make([]int64, len(p.Sources)),
		rngs:     make([]*sim.Rand, len(p.Sources)),
	}
	for i, s := range p.Sources {
		g.samplers[i] = s.sampler()
		g.counters[i] = sub + ".noise.events." + s.Name
		g.rngs[i] = sim.NewRand(0)
	}
	return g
}

// AppendNode appends one node's interruptions over [0, horizon) to buf,
// source by source in profile order, each source's in start order. Source
// s draws from rng.DeriveNamed(s.Name), whether or not it is disabled.
func (g *Generator) AppendNode(buf []Interruption, horizon time.Duration, rng *sim.Rand) []Interruption {
	for i := range g.samplers {
		sp := &g.samplers[i]
		n := len(buf)
		rng.DeriveNamedInto(g.rngs[i], sp.src.Name)
		buf = sp.appendEvents(buf, horizon, g.rngs[i])
		g.events[i] += int64(len(buf) - n)
		for _, iv := range buf[n:] {
			g.stolen += iv.Len
		}
	}
	return buf
}

// NodeInto refills tl with one node's interruptions over [0, horizon), the
// ones AppendNode draws from rng, and returns buf holding them in
// AppendNode's order. tl's storage and buf's backing array are reused, so a
// caller drawing node after node allocates only while they grow; slices tl
// handed out before the call are overwritten.
func (g *Generator) NodeInto(tl *Timeline, buf []Interruption, horizon time.Duration, rng *sim.Rand) []Interruption {
	buf = g.AppendNode(buf[:0], horizon, rng)
	tl.group(buf)
	return buf
}

// Publish adds the events generated since the last Publish to reg and
// resets the tallies: <subsystem>.noise.events.<source> for every source
// that produced events, and <subsystem>.noise.stolen_ns once any did.
func (g *Generator) Publish(reg *telemetry.Registry) {
	produced := false
	for i, n := range g.events {
		if n > 0 {
			reg.Counter(g.counters[i]).Add(n)
			produced = true
		}
		g.events[i] = 0
	}
	if produced {
		reg.Counter(g.stolenNS).Add(int64(g.stolen))
	}
	g.stolen = 0
}

// Timeline holds per-core interruption streams and answers "how long does a
// quantum of work actually take on this core". The zero value is an empty
// timeline; Generator.NodeInto refills one in place.
type Timeline struct {
	lo      int              // lowest core with interruptions
	perCPU  [][]Interruption // indexed by core - lo; empty for a quiet core
	counts  []int            // per core, group's working counts
	backing []Interruption   // every core's events, perCPU's storage
}

// group replaces tl's contents with events grouped by core, each core's
// sorted by start and then by source name, reusing tl's storage.
func (tl *Timeline) group(events []Interruption) {
	tl.lo, tl.perCPU = 0, tl.perCPU[:0]
	if len(events) == 0 {
		return
	}
	lo, hi := events[0].CPU, events[0].CPU
	for _, iv := range events[1:] {
		lo, hi = min(lo, iv.CPU), max(hi, iv.CPU)
	}
	cores := hi - lo + 1
	tl.counts = slices.Grow(tl.counts[:0], cores)[:cores]
	clear(tl.counts)
	for _, iv := range events {
		tl.counts[iv.CPU-lo]++
	}
	// Carve every core's slice out of one backing array, capacity-capped so
	// a caller appending to ForCPU's result cannot overwrite the next core.
	tl.backing = slices.Grow(tl.backing[:0], len(events))[:len(events)]
	tl.lo, tl.perCPU = lo, slices.Grow(tl.perCPU, cores)[:cores]
	off := 0
	for i, c := range tl.counts {
		tl.perCPU[i] = tl.backing[off : off : off+c]
		off += c
	}
	for _, iv := range events {
		i := iv.CPU - lo
		tl.perCPU[i] = append(tl.perCPU[i], iv)
	}
	for _, ivs := range tl.perCPU {
		slices.SortFunc(ivs, func(a, b Interruption) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return strings.Compare(a.Source, b.Source)
		})
	}
}

// ForCPU returns the interruptions on one core, sorted by start.
func (tl *Timeline) ForCPU(cpu int) []Interruption {
	if i := cpu - tl.lo; i >= 0 && i < len(tl.perCPU) {
		return tl.perCPU[i]
	}
	return nil
}

// TotalStolen returns the summed interruption time on a core.
func (tl *Timeline) TotalStolen(cpu int) time.Duration {
	var d time.Duration
	for _, iv := range tl.ForCPU(cpu) {
		d += iv.Len
	}
	return d
}

// Advance computes when a quantum of work that starts at start on cpu
// finishes, accounting for every interruption that begins before the work
// completes (noise during the quantum extends it, potentially exposing it to
// further noise — the same fixed-point the FWQ benchmark measures).
func (tl *Timeline) Advance(cpu int, start sim.Time, work time.Duration) sim.Time {
	ivs := tl.ForCPU(cpu)
	// Find first interruption ending after start.
	idx := sort.Search(len(ivs), func(i int) bool { return ivs[i].End() > start })
	end := start.Add(work)
	for ; idx < len(ivs); idx++ {
		iv := ivs[idx]
		if iv.Start >= end {
			break
		}
		// Stolen time: the part of the interruption overlapping our window
		// pushes the end out by the interruption's remaining length.
		stolen := iv.Len
		if iv.Start < start {
			overlap := iv.End().Sub(start)
			if overlap <= 0 {
				continue
			}
			stolen = overlap
		}
		end = end.Add(stolen)
	}
	return end
}
