package apps

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mkos/internal/noise"
	"mkos/internal/shard"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// This file is the full-machine FWQ campaign of Sec. 6.3, restaged on the
// sharded runner: every node of the cluster runs the benchmark as one
// discrete event, reduces its result to a compact digest in situ, and ships
// the digest over the interconnect to a collector node — exactly the
// worst-100-of-158,976 selection the paper performed on Fugaku to avoid
// writing 159k raw FWQ traces to the parallel filesystem. Only after the
// in-situ selection are the worst nodes re-run, for their exact iteration
// distribution: the clean count plus the perturbed durations, which is the
// sorted iteration list without its clean run spelled out.
//
// A node's work is regenerating its timeline and walking it (fwqWalk), and
// each shard does it on storage it reuses from node to node: one generator
// per class, one timeline, one event and one duration buffer. The shard's
// sink is resolved once in Setup.
//
// Everything here is inside the determinism boundary: with the same seed
// the result is byte-identical at any shard count. Per-node RNG streams
// follow the Skip/DeriveSeed discipline, digests arrive at the collector
// in the runner's canonical order, and nothing partition-dependent (shard
// count, cross-shard traffic) appears in the result.

// FWQClass is one node-population class: the cores the benchmark measures
// and the OS noise profile driving them. Fugaku has two (50-core and
// 52-core nodes); booting one OS per class instead of one per node is what
// makes 158,976-node runs fit in memory.
type FWQClass struct {
	Cores   []int
	Profile *noise.Profile
}

// FWQMachineConfig configures a sharded full-machine FWQ run.
type FWQMachineConfig struct {
	// Work and Duration are the per-iteration quantum and the benchmark
	// length, as in FWQConfig.
	Work     time.Duration
	Duration time.Duration

	Nodes int
	Seed  int64

	// Shards is the conservative-parallel shard count. It changes wall-clock
	// time only, never the result.
	Shards int

	// WorstK is how many worst nodes (by total noise) are re-run for their
	// exact iteration distribution after the in-situ selection. The paper
	// keeps the worst 100.
	WorstK int

	// Lookahead is the conservative window bound, normally the fabric's
	// MinLatency. Digest reports are clamped to at least this latency.
	Lookahead time.Duration

	// Classes and ClassOf describe the node population. ClassOf nil means
	// every node is Classes[0].
	Classes []FWQClass
	ClassOf func(node int) int

	// ReportLatency models the digest's trip to the collector (node 0):
	// routed hop latency on Tofu, uniform point-to-point otherwise. Nil
	// means exactly Lookahead. Must never undercut Lookahead; values below
	// it are clamped.
	ReportLatency func(src, dst int, bytes int64) (time.Duration, error)

	// DigestBytes is the modeled wire size of one digest message.
	// Zero means 64.
	DigestBytes int64

	Cancel   func() bool
	Observer shard.Observer
}

// FWQDigest is the compact per-node summary a node reduces its run to
// before shipping it to the collector: the Sec. 6.3 metrics without the
// O(iterations) length series.
type FWQDigest struct {
	Node         int     `json:"node"`
	N            int     `json:"n"`
	TminNS       int64   `json:"tmin_ns"`
	TmaxNS       int64   `json:"tmax_ns"`
	MaxNoiseNS   int64   `json:"max_noise_ns"`
	TotalNoiseNS int64   `json:"total_noise_ns"`
	Rate         float64 `json:"rate"`
}

// FWQWorstNode is one of the worst-K nodes after the re-run: the digest it
// reported in situ plus iteration-time quantiles of every iteration it ran,
// the raw material of Figure 3.
type FWQWorstNode struct {
	Node   int       `json:"node"`
	Class  int       `json:"class"`
	Digest FWQDigest `json:"digest"`
	P50NS  int64     `json:"p50_ns"`
	P90NS  int64     `json:"p90_ns"`
	P99NS  int64     `json:"p99_ns"`
	P999NS int64     `json:"p999_ns"`
	MaxNS  int64     `json:"max_ns"`
}

// FWQMachineResult is the deterministic artifact of a full-machine run.
// It deliberately excludes the shard count and all partition-dependent
// statistics; Windows is included because the window schedule is specified
// to be shard-count invariant.
type FWQMachineResult struct {
	Nodes      int            `json:"nodes"`
	Seed       int64          `json:"seed"`
	WorkNS     int64          `json:"work_ns"`
	DurationNS int64          `json:"duration_ns"`
	Windows    int            `json:"windows"`
	Summary    FWQDigest      `json:"summary"`
	Worst      []FWQWorstNode `json:"worst"`
	Digests    []FWQDigest    `json:"digests"`
}

// ErrBadMachineConfig reports an unusable full-machine configuration.
var ErrBadMachineConfig = errors.New("apps: invalid FWQ machine configuration")

// fwqMachineModel is the shard.Model behind FWQMachine. The digests slice
// is written only from Deliver, which the runner executes solely on the
// goroutine of the shard owning node 0.
type fwqMachineModel struct {
	cfg     FWQMachineConfig
	classOf func(int) int
	report  func(src, dst int, bytes int64) (time.Duration, error)
	digests []FWQDigest
	got     int
}

func (m *fwqMachineModel) Setup(s *shard.Shard) error {
	w := newFWQNodeWalker(&m.cfg)
	reg := s.Sink.Registry()
	base := sim.NewRand(m.cfg.Seed)
	base.Skip(s.Nodes.Lo)
	at := sim.Time(m.cfg.Duration)
	for n := s.Nodes.Lo; n < s.Nodes.Hi; n++ {
		seed := base.DeriveSeed(int64(n))
		cls := m.classOf(n)
		if cls < 0 || cls >= len(m.cfg.Classes) {
			return fmt.Errorf("%w: node %d maps to class %d of %d",
				ErrBadMachineConfig, n, cls, len(m.cfg.Classes))
		}
		node := n
		s.Engine.ScheduleAt(at, "fwq-node", func(e *sim.Engine) {
			// The node's whole benchmark collapses into this one event: it
			// fires at the instant the run completes, builds the timeline
			// from the node's derived stream, walks the iterations and
			// reports the digest. A failure is a typed panic the runner
			// converts into a shard error.
			d, err := w.digest(node, cls, seed)
			if err != nil {
				panic(fmt.Errorf("fwq machine: node %d: %w", node, err))
			}
			w.gens[cls].Publish(reg)
			lat, err := m.report(node, 0, m.cfg.DigestBytes)
			if err != nil {
				panic(fmt.Errorf("fwq machine: node %d report: %w", node, err))
			}
			if lat < m.cfg.Lookahead {
				lat = m.cfg.Lookahead
			}
			s.Send(node, 0, e.Now().Add(lat), "fwq-digest", d)
		})
	}
	return nil
}

func (m *fwqMachineModel) Deliver(s *shard.Shard, msg shard.Message) {
	d := msg.Payload.(FWQDigest)
	m.digests[d.Node] = d
	m.got++
	s.Sink.Registry().Counter("fwq.machine.digests").Inc()
}

// fwqNodeWalker runs nodes one after another on reused storage: one noise
// generator per class, one timeline, and the event and perturbed-duration
// buffers. It belongs to one goroutine.
type fwqNodeWalker struct {
	cfg       *FWQMachineConfig
	gens      []*noise.Generator
	tl        noise.Timeline
	events    []noise.Interruption
	perturbed []time.Duration // the last node's, in walk order
}

func newFWQNodeWalker(cfg *FWQMachineConfig) *fwqNodeWalker {
	w := &fwqNodeWalker{cfg: cfg, gens: make([]*noise.Generator, len(cfg.Classes))}
	for i, c := range cfg.Classes {
		w.gens[i] = c.Profile.Generator()
	}
	return w
}

// digest regenerates the node's timeline from its seed, walks it and
// reduces the walk to the node's digest: field for field the digest of
// RunFWQSketch's analysis of the same timeline, computed with
// noise.Analyze's operations in the same order but without building the
// per-iteration Lengths. The walk's perturbed durations stay in
// w.perturbed until the next call.
func (w *fwqNodeWalker) digest(node, cls int, seed int64) (FWQDigest, error) {
	class := w.cfg.Classes[cls]
	w.events = w.gens[cls].NodeInto(&w.tl, w.events, w.cfg.Duration, sim.NewRand(seed))
	var clean int64
	clean, w.perturbed = fwqWalk(FWQConfig{Work: w.cfg.Work, Duration: w.cfg.Duration, Cores: class.Cores},
		&w.tl, w.perturbed[:0])
	// As in newFWQSketch: one clean iteration stands for all of them in the
	// analysis, and the rate is re-weighted to every iteration afterwards.
	iters := w.perturbed
	if clean > 0 {
		iters = append(iters, w.cfg.Work)
	}
	a, err := noise.Summarize(iters)
	if err != nil {
		return FWQDigest{}, err
	}
	var total time.Duration
	for _, t := range iters {
		total += t - a.Tmin
	}
	n := clean + int64(len(w.perturbed))
	return FWQDigest{
		Node: node, N: int(n),
		TminNS: int64(a.Tmin), TmaxNS: int64(a.Tmax),
		MaxNoiseNS: int64(a.MaxNoise), TotalNoiseNS: int64(total),
		Rate: a.Rate * float64(len(iters)) / float64(n),
	}, nil
}

// FWQMachine runs the full-machine campaign: the sharded sweep, the in-situ
// worst-K selection, and the sequential full re-run of the selected nodes.
// It is the ctx-free convenience form of FWQMachineContext; cancellation,
// if any, arrives through cfg.Cancel.
func FWQMachine(cfg FWQMachineConfig) (*FWQMachineResult, *shard.Result, error) {
	return FWQMachineContext(context.Background(), cfg)
}

// FWQMachineContext is FWQMachine with caller cancellation: ending ctx
// stops the sharded run cooperatively (merged with cfg.Cancel, exactly as
// shard.RunContext does). The shard.Result is returned alongside for
// callers that want the fold of the per-shard registries or the runner
// statistics; nothing in it beyond Windows may enter a byte-compared
// artifact.
func FWQMachineContext(ctx context.Context, cfg FWQMachineConfig) (*FWQMachineResult, *shard.Result, error) {
	if cfg.Work <= 0 || cfg.Duration <= 0 || cfg.Nodes <= 0 || len(cfg.Classes) == 0 {
		return nil, nil, ErrBadMachineConfig
	}
	for i, c := range cfg.Classes {
		if len(c.Cores) == 0 || c.Profile == nil {
			return nil, nil, fmt.Errorf("%w: class %d incomplete", ErrBadMachineConfig, i)
		}
	}
	if cfg.WorstK < 0 {
		return nil, nil, ErrBadMachineConfig
	}
	if cfg.WorstK > cfg.Nodes {
		cfg.WorstK = cfg.Nodes
	}
	if cfg.DigestBytes <= 0 {
		cfg.DigestBytes = 64
	}
	m := &fwqMachineModel{
		cfg:     cfg,
		classOf: cfg.ClassOf,
		report:  cfg.ReportLatency,
		digests: make([]FWQDigest, cfg.Nodes),
	}
	if m.classOf == nil {
		m.classOf = func(int) int { return 0 }
	}
	if m.report == nil {
		m.report = func(int, int, int64) (time.Duration, error) { return cfg.Lookahead, nil }
	}
	sres, err := shard.RunContext(ctx, shard.Config{
		Nodes: cfg.Nodes, Shards: cfg.Shards, Lookahead: cfg.Lookahead,
		Cancel: cfg.Cancel, Observer: cfg.Observer,
	}, m)
	if err != nil {
		return nil, sres, err
	}
	if m.got != cfg.Nodes {
		return nil, sres, fmt.Errorf("fwq machine: collector received %d of %d digests", m.got, cfg.Nodes)
	}
	res := &FWQMachineResult{
		Nodes: cfg.Nodes, Seed: cfg.Seed,
		WorkNS: int64(cfg.Work), DurationNS: int64(cfg.Duration),
		Windows: sres.Stats.Windows,
		Summary: summarize(m.digests),
		Digests: m.digests,
		Worst:   []FWQWorstNode{},
	}
	w := newFWQNodeWalker(&cfg)
	for _, n := range worstNodes(m.digests, cfg.WorstK) {
		wn, err := w.rerunWorst(m.classOf(n), m.digests[n])
		if err != nil {
			return nil, sres, err
		}
		res.Worst = append(res.Worst, wn)
	}
	// The re-run's noise counters land in the calling goroutine's sink.
	reg := telemetry.Default().Registry()
	for _, g := range w.gens {
		g.Publish(reg)
	}
	return res, sres, nil
}

// summarize merges the per-node digests into the machine-level view, the
// digest analogue of noise.Merge: global extrema, sample-weighted rate.
func summarize(ds []FWQDigest) FWQDigest {
	out := FWQDigest{Node: -1, TminNS: ds[0].TminNS, TmaxNS: ds[0].TmaxNS}
	var rateWeighted float64
	for _, d := range ds {
		out.N += d.N
		out.TotalNoiseNS += d.TotalNoiseNS
		if d.TminNS < out.TminNS {
			out.TminNS = d.TminNS
		}
		if d.TmaxNS > out.TmaxNS {
			out.TmaxNS = d.TmaxNS
		}
		rateWeighted += d.Rate * float64(d.N)
	}
	out.MaxNoiseNS = out.TmaxNS - out.TminNS
	if out.N > 0 {
		out.Rate = rateWeighted / float64(out.N)
	}
	return out
}

// worstNodes ranks nodes by total noise, descending, ties to the lower
// index — the same ordering noise.WorstBy produces.
func worstNodes(ds []FWQDigest, k int) []int {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(ds[b].TotalNoiseNS, ds[a].TotalNoiseNS)
	})
	return idx[:k]
}

// rerunWorst replays one selected node and returns the quantiles of its
// exact iteration distribution. Skip(node) advances the base generator
// exactly as the node's predecessors did in the sequential derivation, so
// the re-run sees the identical timeline the node walked in situ, and its
// whole digest must match the one the node reported.
//
// Clean iterations all last exactly Work and no perturbed one is shorter
// (noise only delays), so the sorted iteration list is clean copies of
// Work followed by the sorted perturbed durations, and each quantile is
// read from it by index.
func (w *fwqNodeWalker) rerunWorst(cls int, d FWQDigest) (FWQWorstNode, error) {
	base := sim.NewRand(w.cfg.Seed)
	base.Skip(d.Node)
	got, err := w.digest(d.Node, cls, base.DeriveSeed(int64(d.Node)))
	if err != nil {
		return FWQWorstNode{}, fmt.Errorf("fwq machine: re-running node %d: %w", d.Node, err)
	}
	if got != d {
		return FWQWorstNode{}, fmt.Errorf("fwq machine: node %d re-run digest %+v differs from its in-situ digest %+v",
			d.Node, got, d)
	}
	perturbed := w.perturbed
	slices.Sort(perturbed)
	clean := d.N - len(perturbed)
	at := func(i int) int64 {
		if i < clean {
			return int64(w.cfg.Work)
		}
		return int64(perturbed[i-clean])
	}
	q := func(p float64) int64 { return at(int(p * float64(d.N-1))) }
	return FWQWorstNode{
		Node: d.Node, Class: cls, Digest: d,
		P50NS: q(0.50), P90NS: q(0.90), P99NS: q(0.99), P999NS: q(0.999),
		MaxNS: at(d.N - 1),
	}, nil
}
