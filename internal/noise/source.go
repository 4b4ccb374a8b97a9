package noise

import (
	"cmp"
	"fmt"
	"math"
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
type sampler struct {
	src              *Source
	stream           int64 // sim.LabelStream(src.Name)
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
		stream:    sim.LabelStream(s.Name),
		interval:  sim.NewLogNormalDist(float64(s.Every), s.EveryCV),
		length:    sim.NewLogNormalDist(float64(s.Length), s.LengthCV),
		tailAlpha: alpha,
	}
}

// batchMax bounds the number of events one kernel batch draws.
const batchMax = 32

// batch is the event kernel's scratch for one batch: per event, its length
// (or the exponent it is taken from), its core, its interval (or the
// interval's exponent) and its start.
type batch struct {
	tail   [batchMax]bool // the length came from the Pareto tail
	lens   [batchMax]time.Duration
	lenExp [batchMax]float64
	core   [batchMax]int
	gaps   [batchMax]time.Duration
	gapExp [batchMax]float64
	starts [batchMax]sim.Time
	out    Batch // what the kernel hands its visitor
}

// Batch is the events of one kernel batch of one source, in start order.
// It is the kernel's scratch, valid only during the visit.
type Batch struct {
	Source int // the source's index in the profile
	Start  []sim.Time
	Len    []time.Duration
	// CPU is each event's core; when it is nil, every event lands on each
	// core of Cores (a TargetAll or TargetOne source).
	CPU   []int
	Cores []int
}

// Hits returns the cores event k lands on.
func (b *Batch) Hits(k int) []int {
	if b.CPU == nil {
		return b.Cores
	}
	return b.CPU[k : k+1]
}

// visitEvents is the noise-event kernel: it hands the source's
// interruptions over [0, horizon), drawn from rng, to visit a batch at a
// time in start order, and returns how many it visited and the time they
// steal. A TargetAll event is one interruption per target core.
//
// The first arrival is uniform within one interval, so independent sources
// are not phase-aligned at t=0. The events then come in batches of up to
// batchMax: the expected number of events left before the horizon, plus
// one. A batch makes every draw its events need, in the order the source
// definition implies (per event: a Bernoulli draw and a Pareto length for
// a tail source, else a lognormal length exponent; a core pick for
// TargetRandom; an interval exponent), then takes the batch's math.Exp
// calls, which do not wait on one another, then visits its events up to
// the horizon. What a batch draws for events at or past the horizon is
// thrown away. That is safe because rng is this source's private stream,
// derived for one node and reseeded before any further use: no later draw
// reads its state, so the events visited are exactly those a loop drawing
// one event at a time would produce.
func (g *sampler) visitEvents(b *batch, source int, horizon time.Duration, rng *sim.Rand, visit func(*Batch)) (events int64, stolen time.Duration) {
	s := g.src
	if s.Disabled {
		return 0, 0
	}
	end := sim.Time(horizon)
	rr := 0
	t := sim.Time(rng.DurationUniform(0, s.Every))
	for t < end {
		n := int(min(batchMax, end.Sub(t)/s.Every+1))
		for k := range n {
			b.tail[k] = s.TailProb > 0 && rng.Bernoulli(s.TailProb)
			switch {
			case b.tail[k]:
				b.lens[k] = time.Duration(rng.Pareto(float64(s.Length)*s.TailFactor, g.tailAlpha))
			case s.LengthCV > 0:
				b.lenExp[k] = g.length.Exponent(rng)
			default:
				b.lens[k] = s.Length
			}
			if s.Mode == TargetRandom {
				b.core[k] = s.Cores[rng.Intn(len(s.Cores))]
			}
			if s.EveryCV > 0 {
				b.gapExp[k] = g.interval.Exponent(rng)
			} else {
				b.gaps[k] = s.Every
			}
		}
		if s.LengthCV > 0 {
			for k := range n {
				if !b.tail[k] {
					b.lens[k] = max(time.Duration(math.Exp(b.lenExp[k])), time.Nanosecond)
				}
			}
		}
		if s.EveryCV > 0 {
			for k := range n {
				b.gaps[k] = max(time.Duration(math.Exp(b.gapExp[k])), time.Nanosecond)
			}
		}
		m := 0
		var sum time.Duration
		for ; m < n && t < end; m++ {
			b.starts[m] = t
			t = t.Add(b.gaps[m])
			if s.Mode == TargetRoundRobin {
				b.core[m] = s.Cores[rr%len(s.Cores)]
				rr++
			}
			sum += b.lens[m]
		}
		out, hits := &b.out, 1
		*out = Batch{Source: source, Start: b.starts[:m], Len: b.lens[:m], CPU: b.core[:m]}
		switch s.Mode {
		case TargetAll:
			out.CPU, out.Cores, hits = nil, s.Cores, len(s.Cores)
		case TargetOne:
			out.CPU, out.Cores = nil, s.Cores[:1]
		}
		events += int64(m * hits)
		stolen += time.Duration(hits) * sum
		visit(out)
	}
	return events, stolen
}

// Profile is a node's complete noise description: the set of active sources.
type Profile struct {
	Sources []*Source
	// Subsystem labels the owning OS model ("linux", "mckernel") so the
	// telemetry counters this profile emits are attributable; empty means
	// the generic "noise" namespace.
	Subsystem string
	// Sink receives the noise counters of the timelines the profile
	// generates; the OS model that derives the profile sets it to its own.
	Sink *telemetry.Sink
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
		g.Publish(p.Sink)
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
	batch    batch       // the event kernel's scratch
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

// VisitNode hands one node's interruptions over [0, horizon) to visit a
// kernel batch at a time, source by source in profile order, each source's
// in start order, and stores none of them. Source s draws from
// rng.DeriveNamed(s.Name), whether or not it is disabled.
func (g *Generator) VisitNode(horizon time.Duration, rng *sim.Rand, visit func(*Batch)) {
	for i := range g.samplers {
		sp := &g.samplers[i]
		rng.DeriveInto(g.rngs[i], sp.stream)
		n, stolen := sp.visitEvents(&g.batch, i, horizon, g.rngs[i], visit)
		g.events[i] += n
		g.stolen += stolen
	}
}

// AppendNode appends one node's interruptions over [0, horizon), the ones
// VisitNode visits, to buf in VisitNode's order, each TargetAll event's
// in its source's core order.
func (g *Generator) AppendNode(buf []Interruption, horizon time.Duration, rng *sim.Rand) []Interruption {
	g.VisitNode(horizon, rng, func(b *Batch) {
		name := g.samplers[b.Source].src.Name
		for k, start := range b.Start {
			for _, c := range b.Hits(k) {
				buf = append(buf, Interruption{Start: start, Len: b.Len[k], CPU: c, Source: name})
			}
		}
	})
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

// Publish adds the events generated since the last Publish to sink and
// resets the tallies: <subsystem>.noise.events.<source> for every source
// that produced events, and <subsystem>.noise.stolen_ns once any did.
func (g *Generator) Publish(sink *telemetry.Sink) {
	produced := false
	for i, n := range g.events {
		if n > 0 {
			sink.Counter(g.counters[i]).Add(n)
			produced = true
		}
		g.events[i] = 0
	}
	if produced {
		sink.Counter(g.stolenNS).Add(int64(g.stolen))
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
