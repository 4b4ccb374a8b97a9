// Package shard runs one deterministic simulation across parallel engines:
// a conservative ("no shard ever receives an event in its past") parallel
// discrete-event layer that partitions a machine's nodes into contiguous
// blocks, gives each block its own sim.Engine on its own goroutine, and
// advances all of them through bounded windows of simulated time.
//
// The window bound comes from the modeled interconnect: no communication
// between distinct nodes completes in less than the fabric's minimum latency
// (interconnect.Fabric.MinLatency), so a message emitted at instant t cannot
// take effect before t+L. With W = min(next pending event across shards) + L,
// every shard can advance to W-1 without hearing from the others — the
// classic windowed (YAWNS-style) conservative protocol, with a barrier
// exchange instead of null messages. Cross-shard messages travel through
// per-pair channels at the barrier and are folded into the destination
// engine in a canonical order, the same sorted-key discipline the sweep
// collector uses for trial results.
//
// Determinism contract — byte-identical artifacts at any shard count:
//
//   - Node state is private to its owning shard. Nodes interact only through
//     Shard.Send, including node pairs that happen to share a shard: local
//     messages take the same barrier path, in the same canonical order, as
//     remote ones.
//   - Deliveries fold in (At, Src node, per-source emission index) order —
//     every component shard-count-invariant, unlike the shard index or the
//     engine's internal sequence numbers.
//   - The window schedule is a pure function of the global pending-event set
//     and the lookahead, so Stats.Windows is itself invariant (and safe to
//     embed in deterministic artifacts); Stats.CrossMessages is not — it
//     counts shard-boundary crossings, which depend on the partition — and
//     belongs to ops-side reporting only (see shardops).
//   - Per-shard telemetry folds in shard-index order. Integer aggregates
//     (counters, histogram bucket counts) merge exactly at any shard count;
//     float histogram sums accumulate in fold-grouping order, so models that
//     need byte-identical merged registries publish counters, not float
//     histograms.
//
// The package sits inside the determinism boundary: no wall clock, no
// internal/telemetry/ops import. Wall-side
// instrumentation (window count, barrier waits, cross-shard traffic) hangs
// off the Observer callbacks, implemented outside the boundary in
// shard/shardops.
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// Message is one cross-node interaction in flight. Src and Dst are node ids,
// not shard indices: shard boundaries are invisible to the model.
type Message struct {
	// At is the delivery instant; Send enforces At >= now + lookahead.
	At sim.Time
	// Src and Dst are the emitting and receiving nodes.
	Src, Dst int
	// Kind labels the message; it becomes the delivery event's name.
	Kind string
	// Payload is model-defined. It crosses goroutines at a barrier (the
	// channel send/receive orders the memory), but the model must treat a
	// sent payload as frozen: mutating it after Send races with the receiver.
	Payload any

	// seq is the per-source-node emission index, the canonical tiebreak for
	// simultaneous deliveries. A node's own emission order is shard-count
	// invariant; the engine's sequence numbers and the shard index are not.
	seq uint64
}

// Model is the simulation being sharded.
type Model interface {
	// Setup populates shard s with its nodes' initial events. It runs once
	// per shard, on the shard's goroutine, before the first window; initial
	// cross-node messages may be emitted with s.Send (the clock is 0, so
	// delivery instants must be >= the lookahead).
	Setup(s *Shard) error
	// Deliver handles a message addressed to a node s owns. It runs as an
	// engine event at msg.At, in canonical (At, Src, emission) order.
	Deliver(s *Shard, msg Message)
}

// Observer receives wall-side progress callbacks; see shardops. Methods are
// invoked from the coordinating goroutine (WindowStart, Exchanged) and from
// shard goroutines (ShardDone) concurrently.
type Observer interface {
	// WindowStart fires immediately before window w is released: every shard
	// is about to advance to the inclusive instant until.
	WindowStart(w int, until sim.Time)
	// ShardDone fires when shard s finishes advancing through window w and
	// enters the barrier.
	ShardDone(s, w int)
	// Exchanged fires after every shard has entered a barrier: n messages
	// changed hands, cross of them between distinct shards.
	Exchanged(cross, n int)
}

// Config dimensions one sharded run.
type Config struct {
	// Nodes is the machine size; node ids are [0, Nodes).
	Nodes int
	// Shards is the engine count; 1 is the sequential baseline every other
	// count must match byte-for-byte.
	Shards int
	// Lookahead is the conservative window margin, normally the fabric's
	// MinLatency. It must be positive; a larger value means fewer barriers
	// but is only safe while no message undercuts it (Send enforces this).
	Lookahead sim.Duration
	// Cancel, when non-nil, is polled between events on every engine (the
	// sanctioned cross-goroutine touch point, sim.Engine.SetCancelHook); a
	// true return stops the run with sim.ErrCanceled.
	Cancel func() bool
	// Observer, when non-nil, receives ops-side progress callbacks.
	Observer Observer
}

// Stats summarizes one run.
type Stats struct {
	// Windows is the number of conservative time windows executed. It is a
	// pure function of the model and lookahead — invariant across shard
	// counts — and may appear in deterministic artifacts.
	Windows int
	// Messages counts every Send; also shard-count invariant.
	Messages int64
	// CrossMessages counts messages whose source and destination nodes lived
	// on distinct shards. It depends on the partition: ops-side only, never
	// in byte-compared artifacts.
	CrossMessages int64
	// Events is the total event count fired across all engines.
	Events uint64
}

// Result is a completed (or aborted) run.
type Result struct {
	Stats Stats
	// Registry folds the per-shard telemetry registries in shard order. See
	// the package comment for what merges exactly.
	Registry *telemetry.Registry
	// Sinks are the per-shard telemetry sinks, in shard order, for callers
	// that need raw access (trace buffers, per-shard snapshots).
	Sinks []*telemetry.Sink
}

// Run errors.
var (
	// ErrBadConfig reports an unusable Config.
	ErrBadConfig = errors.New("shard: invalid config")
	// ErrShortSend is the typed panic value (wrapped) raised by Shard.Send
	// when a delivery instant undercuts now + lookahead. Such a message
	// could land in a window another shard has already simulated past — the
	// one causality violation conservative synchronization exists to
	// prevent — so the model is stopped at the offending call.
	ErrShortSend = errors.New("shard: send undercuts lookahead")
	// ErrForeignSource is the typed panic value (wrapped) raised by
	// Shard.Send when the source node is not owned by the sending shard.
	ErrForeignSource = errors.New("shard: send from foreign node")
)

// Shard is one partition of the run: a contiguous node block, its engine and
// its telemetry sink. Models receive it in Setup and Deliver; everything on
// it is confined to the shard's own goroutine.
type Shard struct {
	// Index is the shard's position in [0, Config.Shards).
	Index int
	// Nodes is the contiguous node block this shard owns.
	Nodes Range
	// Engine is the shard's private event loop.
	Engine *sim.Engine
	// Sink is the shard's own telemetry sink. Model code publishes into it,
	// and the runner folds it into Result.Registry in shard order.
	Sink *telemetry.Sink

	run    *runner
	outbox []Message
	seqs   []uint64 // per node of the block: its next emission index
	// batches (by destination shard) and inbox are exchange buffers kept
	// from window to window.
	batches [][]Message
	inbox   []Message
}

// Lookahead returns the run's conservative window margin.
func (s *Shard) Lookahead() sim.Duration { return s.run.cfg.Lookahead }

// Send emits a message from node src to node dst, delivered at instant at.
// This is the only sanctioned channel between nodes — even co-resident ones:
// routing local traffic through the same barrier fold is what keeps results
// byte-identical at any shard count. Send panics (typed, see ErrShortSend
// and ErrForeignSource) on a lookahead violation or a source the shard does
// not own; a panic inside a window surfaces as that shard's run error.
func (s *Shard) Send(src, dst int, at sim.Time, kind string, payload any) {
	if !s.Nodes.Contains(src) {
		panic(fmt.Errorf("%w: node %d is not in shard %d's block [%d,%d)",
			ErrForeignSource, src, s.Index, s.Nodes.Lo, s.Nodes.Hi))
	}
	if dst < 0 || dst >= s.run.cfg.Nodes {
		panic(fmt.Errorf("shard: send to node %d outside machine of %d", dst, s.run.cfg.Nodes))
	}
	if horizon := s.Engine.Now().Add(s.run.cfg.Lookahead); at < horizon {
		panic(fmt.Errorf("%w: %s from node %d at %v delivers at %v, horizon %v",
			ErrShortSend, kind, src, s.Engine.Now(), at, horizon))
	}
	seq := s.seqs[src-s.Nodes.Lo]
	s.seqs[src-s.Nodes.Lo] = seq + 1
	s.outbox = append(s.outbox, Message{At: at, Src: src, Dst: dst, Kind: kind, Payload: payload, seq: seq})
}

// command releases one window to a shard (or, with run=false, ends its loop).
type command struct {
	run   bool
	until sim.Time
	w     int
}

// report is one shard's barrier arrival: its next pending instant and the
// message traffic it just pushed through the exchange.
type report struct {
	shard       int
	nextAt      sim.Time
	hasNext     bool
	sent, cross int
	err         error
}

// runner wires the coordinator and the shard goroutines together.
type runner struct {
	cfg   Config
	parts []Range
	model Model

	// mail[i][j] carries shard i's batch for shard j, one per barrier. The
	// capacity-1 buffer is what makes the all-to-all exchange deadlock-free:
	// a shard posts all its batches (never blocking — each channel was
	// drained at the previous barrier) before draining its own column.
	mail    [][]chan []Message
	cmds    []chan command
	reports chan report
}

// Run executes the model across cfg.Shards parallel engines and returns the
// folded result. It is the ctx-free convenience form of RunContext;
// cancellation, if any, arrives through cfg.Cancel.
func Run(cfg Config, m Model) (*Result, error) {
	return RunContext(context.Background(), cfg, m)
}

// RunContext executes the model across cfg.Shards parallel engines and
// returns the folded result. The returned error is the lowest-indexed
// shard's failure (model error, engine interruption, or a recovered model
// panic); the Result is returned alongside it with whatever completed.
//
// Ending ctx stops the run exactly as a true cfg.Cancel return would: the
// predicate merges into the per-engine cancel hook, every shard settles
// cooperatively between events, and the run reports sim.ErrCanceled.
func RunContext(ctx context.Context, cfg Config, m Model) (*Result, error) {
	if done := ctx.Done(); done != nil {
		inner := cfg.Cancel
		cfg.Cancel = func() bool {
			if ctx.Err() != nil {
				return true
			}
			return inner != nil && inner()
		}
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("%w: lookahead %v", ErrBadConfig, cfg.Lookahead)
	}
	parts, err := Partition(cfg.Nodes, cfg.Shards)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, parts: parts, model: m}
	nShards := len(parts)
	r.mail = make([][]chan []Message, nShards)
	for i := range r.mail {
		r.mail[i] = make([]chan []Message, nShards)
		for j := range r.mail[i] {
			r.mail[i][j] = make(chan []Message, 1)
		}
	}
	r.cmds = make([]chan command, nShards)
	shards := make([]*Shard, nShards)
	for i := range shards {
		r.cmds[i] = make(chan command, 1)
		shards[i] = &Shard{
			Index: i, Nodes: parts[i], Engine: sim.NewEngine(),
			Sink: telemetry.NewSink(), run: r, seqs: make([]uint64, parts[i].Len()),
			batches: make([][]Message, nShards),
		}
		if cfg.Cancel != nil {
			shards[i].Engine.SetCancelHook(cfg.Cancel, 0)
		}
	}
	r.reports = make(chan report, nShards)

	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			r.shardLoop(ctx, s)
		}(shards[i])
	}

	stats := Stats{}
	errs := make([]error, nShards)
	for w := 0; ; w++ {
		minNext, has := sim.Time(0), false
		sent, cross := 0, 0
		for k := 0; k < nShards; k++ {
			rep := <-r.reports
			if rep.err != nil && errs[rep.shard] == nil {
				errs[rep.shard] = rep.err
			}
			sent += rep.sent
			cross += rep.cross
			if rep.hasNext && (!has || rep.nextAt < minNext) {
				minNext, has = rep.nextAt, true
			}
		}
		stats.Messages += int64(sent)
		stats.CrossMessages += int64(cross)
		if cfg.Observer != nil {
			cfg.Observer.Exchanged(cross, sent)
		}
		failed := false
		for _, e := range errs {
			if e != nil {
				failed = true
				break
			}
		}
		if failed || !has {
			for i := range r.cmds {
				r.cmds[i] <- command{run: false}
			}
			break
		}
		until := minNext.Add(cfg.Lookahead) - 1
		stats.Windows++
		if cfg.Observer != nil {
			cfg.Observer.WindowStart(w, until)
		}
		for i := range r.cmds {
			r.cmds[i] <- command{run: true, until: until, w: w}
		}
	}
	wg.Wait()

	res := &Result{Stats: stats, Registry: telemetry.NewRegistry()}
	for _, s := range shards {
		stats.Events += s.Engine.Fired()
		res.Sinks = append(res.Sinks, s.Sink)
		res.Registry.AddSnapshot(s.Sink.Snapshot())
	}
	res.Stats.Events = stats.Events
	for i, e := range errs {
		if e != nil {
			return res, fmt.Errorf("shard %d: %w", i, e)
		}
	}
	return res, nil
}

// shardLoop is one shard's life: set up, then alternate barrier exchanges
// with released windows until the coordinator ends the run. ctx is the
// run's cancellation scope: a dead ctx stops the shard before the next
// window opens (the merged cancel hook handles mid-window stops).
func (r *runner) shardLoop(ctx context.Context, s *Shard) {
	err := safely(func() error { return r.model.Setup(s) })
	for w := 0; ; w++ {
		sent, cross, xerr := r.exchange(s, err != nil)
		if err == nil {
			err = xerr
		}
		nextAt, hasNext := s.Engine.NextAt()
		r.reports <- report{shard: s.Index, nextAt: nextAt, hasNext: hasNext, sent: sent, cross: cross, err: err}
		cmd := <-r.cmds[s.Index]
		if !cmd.run {
			return
		}
		if err == nil && ctx.Err() != nil {
			err = sim.ErrCanceled
		}
		if err == nil {
			err = safely(func() error { return s.Engine.RunUntil(cmd.until) })
			if r.cfg.Observer != nil {
				r.cfg.Observer.ShardDone(s.Index, cmd.w)
			}
		}
	}
}

// exchange pushes the shard's outbox through the per-pair mailboxes and
// folds the arriving batches into the engine in canonical order. It always
// completes the full send/receive protocol — even for a failed shard — so no
// peer ever blocks at the barrier; only the scheduling step is skipped on a
// dead engine (whose ScheduleAt would rightly panic, see
// sim.ErrScheduleAfterInterrupt).
func (r *runner) exchange(s *Shard, dead bool) (sent, cross int, err error) {
	for _, msg := range s.outbox {
		d := Owner(r.parts, msg.Dst)
		s.batches[d] = append(s.batches[d], msg)
	}
	sent = len(s.outbox)
	cross = sent - len(s.batches[s.Index])
	if sent > 0 {
		s.Sink.Counter("shard.sent").Add(int64(sent))
	}
	s.outbox = s.outbox[:0]
	// A peer copies the batch sent here before it reports at this barrier,
	// and the next exchange starts after every report: the batch's storage
	// is free to refill then.
	for j := range r.mail[s.Index] {
		r.mail[s.Index][j] <- s.batches[j]
		s.batches[j] = s.batches[j][:0]
	}
	inbox := s.inbox[:0]
	for j := range r.mail {
		inbox = append(inbox, <-r.mail[j][s.Index]...)
	}
	s.inbox = inbox
	if dead || len(inbox) == 0 {
		return sent, cross, nil
	}
	err = safely(func() error {
		// Canonical fold: (At, Src, emission index) is a total order — a
		// node's emissions are consecutively numbered — and every component
		// survives repartitioning, unlike engine sequence numbers. The
		// engine fires by instant, then in scheduling order, so scheduling
		// in (Src, emission index) order fires in the canonical one.
		slices.SortFunc(inbox, func(a, b Message) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.seq, b.seq))
		})
		for _, msg := range inbox {
			s.Engine.ScheduleAt(msg.At, msg.Kind, func(*sim.Engine) {
				r.model.Deliver(s, msg)
			})
		}
		return nil
	})
	return sent, cross, err
}

// safely converts a panicking model (or a typed engine panic) into a shard
// error, keeping the barrier protocol alive so the other shards can be wound
// down instead of deadlocked.
func safely(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if perr, ok := p.(error); ok {
				err = fmt.Errorf("panic: %w\n%s", perr, debug.Stack())
				return
			}
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}
