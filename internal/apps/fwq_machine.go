package apps

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
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
// A node's work is regenerating its interruptions on the measured cores
// straight from the noise kernel's batches and walking them (coreEvents,
// FWQCore.walk); no timeline is built. Each shard spreads that work over w =
// max(1, GOMAXPROCS/Shards) workers, chunk by chunk (fwqChunk nodes): the
// first node event of a chunk splits it into w contiguous blocks, digests
// every block on its own goroutine and joins them before returning, and
// each node's event then reports its digest. Every worker owns its storage
// and reuses it from node to node: per class one generator and its
// per-core event buffers, and one duration buffer. Node n's seed is
// derived from the shard's base stream in node order before the chunk fans
// out, so a digest never depends on w, and the workers' noise counters go
// to the shard's sink after each join, where they sum to the same totals
// at any w. The worst-K re-run uses the same block split.
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

	// Sink receives the noise counters of the worst-K re-run. The sharded
	// sweep publishes into the per-shard sinks (shard.Result.Sinks).
	Sink *telemetry.Sink
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

// fwqChunk is how many consecutive nodes of a shard one fan-out digests.
// It bounds the digests a shard holds before their events report them, and
// how much work a cancellation between events waits for.
const fwqChunk = 256

// fwqMachineModel is the shard.Model behind FWQMachine. The digests slice
// is written only from Deliver, which the runner executes solely on the
// goroutine of the shard owning node 0.
type fwqMachineModel struct {
	cfg     FWQMachineConfig
	classOf func(int) int
	report  func(src, dst int, bytes int64) (time.Duration, error)
	workers int // per shard
	digests []FWQDigest
	got     int
	counted *telemetry.Counter // fwq.machine.digests, resolved at the first delivery
}

func (m *fwqMachineModel) Setup(s *shard.Shard) error {
	for n := s.Nodes.Lo; n < s.Nodes.Hi; n++ {
		if cls := m.classOf(n); cls < 0 || cls >= len(m.cfg.Classes) {
			return fmt.Errorf("%w: node %d maps to class %d of %d",
				ErrBadMachineConfig, n, cls, len(m.cfg.Classes))
		}
	}
	c := &fwqShardNodes{
		classOf: m.classOf, sink: s.Sink, base: sim.NewRand(m.cfg.Seed),
		first: s.Nodes.Lo, hi: s.Nodes.Hi,
		walkers: newFWQNodeWalkers(&m.cfg, min(m.workers, s.Nodes.Len())),
		jobs:    make([]fwqNodeJob, 0, min(fwqChunk, s.Nodes.Len())),
	}
	c.base.Skip(s.Nodes.Lo)
	// The node's whole benchmark collapses into one event: it fires at the
	// instant the run completes and reports the digest of the node's
	// derived stream. The node events all fire at that instant in node
	// order, so one handler serves them all, counting the node. A failure
	// is a typed panic the runner converts into a shard error.
	node := s.Nodes.Lo
	report := func(e *sim.Engine) {
		d, err := c.digest(node)
		if err != nil {
			panic(fmt.Errorf("fwq machine: node %d: %w", node, err))
		}
		lat, err := m.report(node, 0, m.cfg.DigestBytes)
		if err != nil {
			panic(fmt.Errorf("fwq machine: node %d report: %w", node, err))
		}
		if lat < m.cfg.Lookahead {
			lat = m.cfg.Lookahead
		}
		s.Send(node, 0, e.Now().Add(lat), "fwq-digest", d)
		node++
	}
	for n := s.Nodes.Lo; n < s.Nodes.Hi; n++ {
		s.Engine.ScheduleAt(sim.Time(m.cfg.Duration), "fwq-node", report)
	}
	return nil
}

func (m *fwqMachineModel) Deliver(s *shard.Shard, msg shard.Message) {
	d := msg.Payload.(FWQDigest)
	m.digests[d.Node] = d
	m.got++
	if m.counted == nil {
		m.counted = s.Sink.Counter("fwq.machine.digests")
	}
	m.counted.Inc()
}

// fwqShardNodes digests one shard's nodes a chunk at a time. It belongs to
// the shard's goroutine; its walkers are lent to the block goroutines only
// between a chunk's fan-out and its join.
type fwqShardNodes struct {
	classOf func(int) int
	sink    *telemetry.Sink
	base    *sim.Rand // positioned at the first node after the chunk
	first   int       // the chunk's first node
	hi      int       // the shard's end
	walkers []*fwqNodeWalker
	jobs    []fwqNodeJob // the chunk, in node order
}

// fwqNodeJob is one node of a chunk: its inputs, then its digest.
type fwqNodeJob struct {
	node, cls int
	seed      int64
	d         FWQDigest
	err       error
}

// digest returns the node's digest. The node events fire in node order, so
// the node just past the current chunk starts the next one.
func (c *fwqShardNodes) digest(node int) (FWQDigest, error) {
	i := node - c.first
	if i == len(c.jobs) {
		c.fill()
		i = 0
	}
	return c.jobs[i].d, c.jobs[i].err
}

// fill advances to the next chunk and digests it over the walkers.
func (c *fwqShardNodes) fill() {
	c.first += len(c.jobs)
	c.jobs = c.jobs[:min(fwqChunk, c.hi-c.first)]
	for i := range c.jobs {
		n := c.first + i
		c.jobs[i] = fwqNodeJob{node: n, cls: c.classOf(n), seed: c.base.DeriveSeed(int64(n))}
	}
	// A panic in a block reaches the shard runner, which reports it as the
	// shard's error.
	sim.InBlocks(len(c.jobs), len(c.walkers), func(b, lo, hi int) {
		for i := lo; i < hi; i++ {
			j := &c.jobs[i]
			j.d, j.err = c.walkers[b].digest(j.node, j.cls, j.seed)
		}
	})
	for _, w := range c.walkers {
		w.publish(c.sink)
	}
}

// fwqNodeWalker runs nodes one after another on reused storage: one
// coreEvents (generator, event and walk buffers) per class. It belongs to
// one goroutine.
type fwqNodeWalker struct {
	cfg       *FWQMachineConfig
	classes   []*coreEvents
	perturbed []time.Duration // the last node's, in its class's walk buffer
}

func newFWQNodeWalker(cfg *FWQMachineConfig) *fwqNodeWalker {
	w := &fwqNodeWalker{cfg: cfg, classes: make([]*coreEvents, len(cfg.Classes))}
	for i, c := range cfg.Classes {
		w.classes[i] = newCoreEvents(c.Profile, c.Cores)
	}
	return w
}

// newFWQNodeWalkers returns n walkers, at least one.
func newFWQNodeWalkers(cfg *FWQMachineConfig, n int) []*fwqNodeWalker {
	ws := make([]*fwqNodeWalker, max(1, n))
	for i := range ws {
		ws[i] = newFWQNodeWalker(cfg)
	}
	return ws
}

// publish adds the noise counters of every node walked since the last
// publish to sink.
func (w *fwqNodeWalker) publish(sink *telemetry.Sink) {
	for _, c := range w.classes {
		c.gen.Publish(sink)
	}
}

// digest regenerates the node's interruptions on its class's measured
// cores from its seed, walks them and reduces the walk to the node's
// digest: field for field the digest of RunFWQSketch's analysis of the
// node's Profile.Timeline, computed with noise.Analyze's operations in the
// same order but without building the timeline or the per-iteration
// Lengths. The walk's perturbed durations stay in w.perturbed until the
// next call.
func (w *fwqNodeWalker) digest(node, cls int, seed int64) (FWQDigest, error) {
	c := w.classes[cls]
	c.node(w.cfg.Work, w.cfg.Duration, sim.NewRand(seed))
	var clean int64
	for _, k := range c.clean {
		clean += k
	}
	w.perturbed = c.perturbed
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
// worst-K selection, and the full re-run of the selected nodes.
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
//
// Each shard digests its nodes on max(1, GOMAXPROCS/cfg.Shards) goroutines,
// so -shards 1 uses every core and a shard count of GOMAXPROCS or more keeps
// one per shard. The result does not depend on the count.
func FWQMachineContext(ctx context.Context, cfg FWQMachineConfig) (*FWQMachineResult, *shard.Result, error) {
	return fwqMachine(ctx, cfg, max(1, goruntime.GOMAXPROCS(0)/max(1, cfg.Shards)))
}

// fwqMachine is FWQMachineContext with workers goroutines per shard.
func fwqMachine(ctx context.Context, cfg FWQMachineConfig, workers int) (*FWQMachineResult, *shard.Result, error) {
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
		workers: workers,
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
	}
	ranked := worstNodes(m.digests, cfg.WorstK)
	seeds := nodeSeeds(cfg.Seed, ranked)
	res.Worst = make([]FWQWorstNode, len(ranked))
	errs := make([]error, len(ranked))
	walkers := newFWQNodeWalkers(&cfg, min(workers, len(ranked)))
	sim.InBlocks(len(ranked), len(walkers), func(b, lo, hi int) {
		for r := lo; r < hi; r++ {
			n := ranked[r]
			res.Worst[r], errs[r] = walkers[b].rerunWorst(m.classOf(n), seeds[r], m.digests[n])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, sres, err
		}
	}
	for _, w := range walkers {
		w.publish(cfg.Sink)
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

// worstNodes returns the k nodes with the most total noise, descending,
// ties to the lower index — the same ordering noise.WorstBy produces. It
// keeps the k worst seen so far in order, so it sorts no more than them.
func worstNodes(ds []FWQDigest, k int) []int {
	worse := func(a, b int) int { // <0 when node a ranks before node b
		if c := cmp.Compare(ds[b].TotalNoiseNS, ds[a].TotalNoiseNS); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	top := make([]int, 0, k+1)
	for n := range ds {
		if len(top) == k && (k == 0 || worse(n, top[k-1]) > 0) {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, n, worse)
		top = slices.Insert(top, i, n)
		top = top[:min(len(top), k)]
	}
	return top
}

// nodeSeeds returns the derived seed of each of nodes (distinct), in their
// order, from one forward walk of the base stream: it visits them in node
// order and skips the nodes between them, advancing the base generator
// exactly as the sequential derivation does.
func nodeSeeds(seed int64, nodes []int) []int64 {
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(nodes[a], nodes[b]) })
	seeds := make([]int64, len(nodes))
	base := sim.NewRand(seed)
	next := 0
	for _, i := range order {
		base.Skip(nodes[i] - next)
		seeds[i] = base.DeriveSeed(int64(nodes[i]))
		next = nodes[i] + 1
	}
	return seeds
}

// rerunWorst replays one selected node from its derived seed (nodeSeeds)
// and returns the quantiles of its exact iteration distribution. The
// re-run sees the identical timeline the node walked in situ, so its whole
// digest must match the one the node reported.
//
// Clean iterations all last exactly Work and no perturbed one is shorter
// (noise only delays), so the sorted iteration list is clean copies of
// Work followed by the sorted perturbed durations, and each quantile is
// read from it by index.
func (w *fwqNodeWalker) rerunWorst(cls int, seed int64, d FWQDigest) (FWQWorstNode, error) {
	got, err := w.digest(d.Node, cls, seed)
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
