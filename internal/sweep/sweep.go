// Package sweep is the campaign-orchestration subsystem: it fans independent
// simulation trials out over a bounded worker pool and merges their results,
// telemetry and failure output back into byte-identical artifacts regardless
// of worker count or completion order.
//
// The paper's evaluation (Figures 3-7, Tables 2-5) is a large trial matrix —
// per-benchmark, per-node-count, per-kernel-config, per-seed — and every
// point is an independent deterministic simulation. That independence is the
// whole contract here:
//
//   - Each trial runs on one worker goroutine against its own telemetry sink
//     (T.Sink), so concurrent trials never share mutable state.
//   - Per-trial seeds derive from the campaign seed and the trial key
//     (DeriveSeed) — never from worker index or completion order — so adding
//     workers cannot change any trial's inputs.
//   - The collector sorts results by trial key before merging payloads,
//     metric registries and trace buffers, so the merged artifacts are
//     byte-identical at -j 1 and -j 8, and under a shuffled trial order.
//   - Completed trials are cached on disk keyed by a content hash of the
//     trial spec, derived seed and code version; a re-run executes only the
//     trials whose inputs changed.
//   - A panicking trial fails that trial (the panic is captured into its
//     result), not the campaign.
//
// Wall-clock measurements (per-trial runtimes, pool utilization, ETA) are
// inherently non-deterministic and therefore live in a separate ops registry
// (Outcome.Ops), never in the merged deterministic registry, which holds
// only what the trials computed from simulated time and their seeds.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

// Trial is one independent unit of campaign work.
type Trial struct {
	// Key is the trial's canonical identity: unique within the campaign,
	// stable across runs, and the sort key for every merge. Keys should be
	// path-like ("fig5/oakforest-pacs/AMG2013/n000256") so merged artifacts
	// group naturally.
	Key string
	// Spec is the trial's full parameter set. It must marshal to JSON
	// deterministically (structs and sorted-key maps); the marshaled form is
	// part of the cache key, so any parameter change re-executes the trial.
	Spec any
	// Run executes the trial and returns its payload, which must marshal to
	// JSON (it is cached and handed back to the merge step). Run publishes
	// its telemetry into t.Sink.
	Run func(t *T) (any, error)
}

// T is the context handed to a running trial.
type T struct {
	// Key echoes the trial key.
	Key string
	// Seed is the trial's deterministic seed, derived from the campaign seed
	// and the trial key. Trials whose spec pins explicit seeds may ignore it.
	Seed int64
	// Sink is the trial's isolated telemetry sink. The trial hands it to
	// what it builds (cluster.Platform.Sink and the like); the orchestrator
	// snapshots it into the trial's result and merges it in key order.
	Sink *telemetry.Sink

	// canceled is raised by the orchestrator when the trial must stop: its
	// wall-time budget expired or the whole campaign is shutting down.
	canceled *atomic.Bool
}

// Canceled reports whether the orchestrator has asked this trial to stop.
// Long-running trial units should poll it between natural units of work
// (jobs, iterations) and return ErrTrialCanceled promptly; a trial that
// never checks is eventually abandoned by its worker and leaks.
func (t *T) Canceled() bool { return t.canceled != nil && t.canceled.Load() }

// AttachEngine wires the trial's cancellation into a simulation engine: the
// engine polls the trial's cancel flag between events and stops its run
// loops with sim.ErrCanceled once the orchestrator raises it. Trial units
// that drive a discrete-event simulation should attach every engine they
// create, so a trial timeout or a campaign SIGINT stops the simulation at a
// well-defined sim-time instead of waiting for the run to drain.
func (t *T) AttachEngine(e *sim.Engine) {
	if t.canceled == nil {
		return
	}
	e.SetCancelHook(t.canceled.Load, trialCancelPoll)
}

// trialCancelPoll is the engine cancel-hook cadence for attached trials:
// small enough that a canceled simulation stops within microseconds of model
// work, large enough that the atomic read never shows up in a profile.
const trialCancelPoll = 256

// ErrTrialCanceled is what cooperative trial units return when they observe
// Canceled(); the orchestrator also matches sim.ErrCanceled from attached
// engines. Either way the trial's outcome is decided by *why* it was
// canceled: a timed-out trial is recorded as failed, a trial canceled by
// campaign shutdown is excluded from the partial outcome and re-runs on
// resume.
var ErrTrialCanceled = errors.New("sweep: trial canceled")

// Campaign is an enumerated set of trials plus the seed they derive from.
type Campaign struct {
	Name   string
	Seed   int64
	Trials []Trial
}

// Options configures one campaign run.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Version augments the cache key; empty selects CodeVersion(). Bump it
	// (or change the code revision) to invalidate every cached trial.
	Version string
	// Trace enables per-trial trace recorders; the merged trace is exposed
	// as Outcome.Recorder. Cached trials contribute no trace events (they
	// never re-execute), so traces are only complete on a cold run.
	Trace bool
	// Progress receives human-readable progress/ETA lines when non-nil.
	Progress io.Writer
	// ProgressEvery throttles progress lines; <= 0 means every 2 seconds.
	ProgressEvery time.Duration

	// TrialTimeout bounds one trial's wall time; 0 disables the deadline.
	// An expired trial is first canceled cooperatively (its cancel flag and
	// any attached engines), then — if it still does not return within
	// CancelGrace — its goroutine is abandoned so the worker can move on.
	// Timed-out trials are recorded as failed but never cached or
	// journaled: a resume re-executes them.
	TrialTimeout time.Duration
	// CancelGrace is how long a canceled or timed-out trial gets to unwind
	// cooperatively before its goroutine is abandoned; <= 0 means 1 second.
	CancelGrace time.Duration
	// RetryFailed re-executes trials whose journaled outcome was a failure.
	// By default a resumed campaign restores the failures its journal records
	// (deterministic trials fail deterministically); pass true after fixing
	// the cause to re-run exactly the failed set.
	RetryFailed bool

	// Heartbeat, when non-nil, is called once after the cache probe
	// and once per trial the pool retires (finished, timed out or canceled —
	// any progress). It exists for out-of-process supervision: a worker
	// process forwards each beat over its pipe so the supervising daemon can
	// distinguish "slow trial" from "wedged worker" without parsing the
	// journal. It runs on orchestrator goroutines and must not block.
	Heartbeat func()

	// OnTrial, when non-nil, receives one event per finished trial — both
	// trials restored from the cache during the probe (in sorted key
	// order) and trials executed by the pool. For executed trials the
	// callback fires under the same lock as the journal append, so the event
	// sequence matches the journal's line order exactly: a consumer
	// replaying events sees the same history a crash-recovery replay of the
	// journal would. The callback runs on orchestrator goroutines and must
	// not block.
	OnTrial func(TrialEvent)
}

// TrialEvent is one finished trial, as observed by Options.OnTrial. It is an
// ops-side (wall-clock) observation — Wall is host time and event order is
// completion order — and never feeds back into deterministic artifacts.
type TrialEvent struct {
	// Key is the trial key; Err its failure message ("" on success).
	Key, Err string
	// Cached marks a trial restored from the cache.
	Cached bool
	// Wall is the execution time (zero when restored).
	Wall time.Duration
	// Done counts trials finished so far (including this one); Total is the
	// campaign size.
	Done, Total int
}

// TrialResult is one trial's outcome. The JSON form is what the cache stores
// and what cmd/sweep writes into results.json; wall-clock fields are excluded
// from it so cached and executed runs serialize identically.
type TrialResult struct {
	Key     string              `json:"key"`
	Seed    int64               `json:"seed"`
	Payload json.RawMessage     `json:"payload,omitempty"`
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	Err     string              `json:"err,omitempty"`

	// Cached reports whether the result was loaded from the cache rather
	// than executed. Wall is the execution time (zero when cached). Both are
	// host-side observations, not part of the deterministic artifact.
	Cached bool          `json:"-"`
	Wall   time.Duration `json:"-"`
}

// Outcome is the merged result of a campaign run.
type Outcome struct {
	Name string
	// Results holds every trial result sorted by Key.
	Results []TrialResult
	// Registry is the deterministic merged metrics registry: per-trial
	// snapshots folded in Key order.
	Registry *telemetry.Registry
	// Recorder holds the merged per-trial traces (Key order); nil unless
	// Options.Trace was set.
	Recorder *telemetry.Recorder
	// Ops carries the non-deterministic operational metrics of the run
	// itself: pool size and utilization, per-trial wall-time histogram,
	// executed/cached/failed counters. Never merge it into Registry.
	Ops *telemetry.Registry
	// Executed, Cached and Failed partition the merged trials (Failed wins
	// over Cached for journal-restored failures). Elapsed is the campaign
	// wall time.
	Executed, Cached, Failed int
	Elapsed                  time.Duration

	// Partial marks an interrupted campaign: Results holds only the trials
	// that finished (or were restored) before cancellation, and Canceled
	// counts the rest — both in-flight trials that were canceled and
	// pending trials that were never dispatched. A resume with the same
	// spec and cache dir re-executes exactly the Canceled set.
	Partial  bool
	Canceled int
	// TimedOut counts trials failed by TrialTimeout (a subset of Failed).
	// Leaked counts trial goroutines that had to be abandoned because they
	// ignored cooperative cancellation — after a timeout or during campaign
	// shutdown; they keep running detached on their isolated sinks.
	TimedOut, Leaked int
}

// Result returns the trial result for key, if present.
func (o *Outcome) Result(key string) (TrialResult, bool) {
	i := sort.Search(len(o.Results), func(i int) bool { return o.Results[i].Key >= key })
	if i < len(o.Results) && o.Results[i].Key == key {
		return o.Results[i], true
	}
	return TrialResult{}, false
}

// Payload unmarshals the named trial's payload into v. It fails on unknown
// keys and on trials that ended in error (their payload is absent).
func (o *Outcome) Payload(key string, v any) error {
	r, ok := o.Result(key)
	if !ok {
		return fmt.Errorf("sweep: campaign %q has no trial %q", o.Name, key)
	}
	if r.Err != "" {
		return fmt.Errorf("sweep: trial %q failed: %s", key, r.Err)
	}
	if err := json.Unmarshal(r.Payload, v); err != nil {
		return fmt.Errorf("sweep: decoding payload of %q: %w", key, err)
	}
	return nil
}

// FirstErr returns the first failed trial's error in key order, nil if the
// campaign was clean.
func (o *Outcome) FirstErr() error {
	for _, r := range o.Results {
		if r.Err != "" {
			return fmt.Errorf("sweep: trial %q: %s", r.Key, r.Err)
		}
	}
	return nil
}

// MergeTelemetry folds the campaign's deterministic telemetry into sink: the
// merged registry is added as a snapshot and, when tracing was on, the merged
// trace buffer is appended to the sink's recorder. Commands use it to land
// campaign telemetry in their own sink before writing -metrics/-trace
// artifacts.
func (o *Outcome) MergeTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	if o.Registry != nil {
		sink.Registry().AddSnapshot(o.Registry.Snapshot())
	}
	if o.Recorder != nil {
		sink.Recorder().MergeFrom(o.Recorder)
	}
}

// ErrInterrupted is returned (wrapped) by RunContext when the context is
// canceled mid-campaign. The accompanying Outcome is the partial merge of
// every trial that finished before cancellation; with a cache dir configured,
// re-invoking the same campaign resumes exactly the unfinished set.
var ErrInterrupted = errors.New("sweep: campaign interrupted")

// Run executes the campaign and merges its results deterministically. It is
// RunContext with a background context — for callers with no cancellation
// story (tests, benchmarks).
func Run(c *Campaign, opts Options) (*Outcome, error) {
	return RunContext(context.Background(), c, opts)
}

// trialStatus classifies how one pending trial's execution ended.
type trialStatus int

const (
	statusNotRun         trialStatus = iota // never dispatched, or canceled mid-run
	statusDone                              // finished (success or its own failure)
	statusTimedOut                          // failed by TrialTimeout, unwound in grace
	statusLeaked                            // failed by TrialTimeout, goroutine abandoned
	statusCanceledLeaked                    // canceled by shutdown AND goroutine abandoned
)

// statusLabel renders a trial's ending for the ops trace.
func statusLabel(s trialStatus, res TrialResult) string {
	switch s {
	case statusDone:
		if res.Err != "" {
			return "failed"
		}
		return "done"
	case statusTimedOut:
		return "timed_out"
	case statusLeaked:
		return "leaked"
	case statusCanceledLeaked:
		return "canceled_leaked"
	}
	return "canceled"
}

// RunContext executes the campaign and merges its results deterministically.
//
// Only campaign-level problems (duplicate keys, an unusable cache directory)
// are returned as errors; individual trial failures — including panics and
// trial timeouts — are captured per trial and surface through Outcome.Failed
// / FirstErr. Cancellation of ctx stops dispatch, cancels in-flight trials
// cooperatively, and returns the partial outcome with ErrInterrupted.
//
// With a cache dir configured, every finished trial is stored as one
// checksummed cache entry and then indexed in a crash-safe campaign journal,
// so an interrupted — or SIGKILLed — campaign re-invoked with the same spec
// resumes with zero re-executed trials and merges artifacts byte-identical
// to an uninterrupted run.
func RunContext(ctx context.Context, c *Campaign, opts Options) (*Outcome, error) {
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// Sort trials by key up front: enumeration order must not matter, and a
	// duplicate key would make the merge ambiguous.
	trials := append([]Trial(nil), c.Trials...)
	sort.Slice(trials, func(i, j int) bool { return trials[i].Key < trials[j].Key })
	for i := 1; i < len(trials); i++ {
		if trials[i].Key == trials[i-1].Key {
			return nil, fmt.Errorf("sweep: campaign %q: duplicate trial key %q", c.Name, trials[i].Key)
		}
	}

	var cache *diskCache
	var jl *journal
	if opts.CacheDir != "" {
		var err error
		if cache, err = openCache(opts.CacheDir, opts.Version); err != nil {
			return nil, err
		}
		if jl, err = openJournal(opts.CacheDir, cache.version, c.Name, c.Seed); err != nil {
			return nil, err
		}
		defer jl.close()
	}

	out := &Outcome{Name: c.Name, Registry: telemetry.NewRegistry(), Ops: telemetry.NewRegistry()}
	if opts.Trace {
		out.Recorder = telemetry.NewRecorder(0)
	}

	// Probe the cache, collecting the trials that still need to run. The
	// cache entry is every finished trial's only copy; the journal decides
	// which failure entries this campaign restores (see diskCache.load).
	// emitted serializes Options.OnTrial with the journal appends: while the
	// lock is held a trial is journaled and then announced, so the event
	// stream's order is exactly the journal's line order. Probe-time
	// restores run before the pool starts and emit in sorted key order.
	var emitMu sync.Mutex
	var emitted int
	notify := func(res TrialResult) {
		if opts.OnTrial == nil {
			return
		}
		emitted++
		opts.OnTrial(TrialEvent{
			Key: res.Key, Err: res.Err, Cached: res.Cached, Wall: res.Wall,
			Done: emitted, Total: len(trials),
		})
	}

	results := make([]TrialResult, len(trials))
	recorders := make([]*telemetry.Recorder, len(trials))
	statuses := make([]trialStatus, len(trials))
	hashes := make([]string, len(trials))
	var pending []int
	_, probeSpan := ops.Start(ctx, "probe")
	for i, t := range trials {
		seed := DeriveSeed(c.Seed, t.Key)
		if cache != nil {
			hashes[i], _ = cache.entryHash(t, seed)
		}
		if hashes[i] != "" {
			withFailure := jl.failed[hashes[i]] && !opts.RetryFailed
			if r, ok := cache.load(hashes[i], t.Key, withFailure); ok {
				results[i], statuses[i] = r, statusDone
				notify(r)
				continue
			}
		}
		results[i] = TrialResult{Key: t.Key, Seed: seed}
		pending = append(pending, i)
	}
	probeSpan.End(
		ops.Arg{Key: "restored", Val: strconv.Itoa(len(trials) - len(pending))},
		ops.Arg{Key: "pending", Val: strconv.Itoa(len(pending))})
	if opts.Heartbeat != nil {
		opts.Heartbeat()
	}

	prog := newProgress(c.Name, len(trials), len(trials)-len(pending), opts)
	runPool(ctx, workers, pending, func(i int) {
		t := trials[i]
		// Each trial gets its own Perfetto lane: concurrent trials overlap
		// in wall time, so they must not share a track.
		tctx, span := ops.StartTrack(ctx, "trial", ops.Arg{Key: "key", Val: t.Key})
		res, rec, status := runTrial(tctx, t, results[i].Seed, opts)
		span.End(ops.Arg{Key: "status", Val: statusLabel(status, res)})
		results[i], recorders[i], statuses[i] = res, rec, status
		if opts.Heartbeat != nil {
			opts.Heartbeat()
		}
		if status == statusNotRun || status == statusCanceledLeaked {
			return // canceled mid-run: nothing to record, the trial re-runs on resume
		}
		// Timed-out and leaked trials are deliberately not persisted: the
		// timeout is a host-side observation, so a resume re-executes them.
		if status == statusDone {
			// The entry goes first: a trial is journaled only once its
			// only copy is durable, and a failed write leaves it to re-run.
			durable := hashes[i] != "" && cache.store(hashes[i], res) == nil
			if opts.OnTrial != nil {
				emitMu.Lock()
			}
			if durable {
				jl.append(hashes[i], res)
			}
			if opts.OnTrial != nil {
				notify(res)
				emitMu.Unlock()
			}
		} else if opts.OnTrial != nil {
			// Timed-out / leaked trials are failures in the outcome but never
			// in the journal; announce them so a live consumer sees the
			// failure rather than a stalled stream.
			emitMu.Lock()
			notify(res)
			emitMu.Unlock()
		}
		prog.done(res)
	})
	prog.finish()

	// Deterministic merge: everything folds in key order. Trials that never
	// finished (canceled in flight or never dispatched) are excluded — the
	// partial artifact contains only trustworthy results.
	for i, r := range results {
		if statuses[i] == statusNotRun || statuses[i] == statusCanceledLeaked {
			out.Canceled++
			if statuses[i] == statusCanceledLeaked {
				out.Leaked++
			}
			continue
		}
		out.Results = append(out.Results, r)
		out.Registry.AddSnapshot(r.Metrics)
		if out.Recorder != nil && recorders[i] != nil {
			out.Recorder.MergeFrom(recorders[i])
		}
		switch {
		case r.Err != "":
			out.Failed++
			if statuses[i] == statusTimedOut || statuses[i] == statusLeaked {
				out.TimedOut++
				if statuses[i] == statusLeaked {
					out.Leaked++
				}
			}
		case r.Cached:
			out.Cached++
		default:
			out.Executed++
		}
	}
	// A cancellation that lands after the last trial finished leaves nothing
	// unfinished: the outcome is complete, not partial.
	out.Partial = out.Canceled > 0
	out.Elapsed = time.Since(start)
	fillOps(out, workers, cache, results)
	if out.Partial {
		if out.Recorder != nil {
			// Mark the shutdown on the merged trace. Only interrupted runs
			// carry these events, so complete-run byte-identity is untouched.
			out.Recorder.Enable()
			out.Recorder.Instant("shutdown", "campaign-interrupted", 0, 0, 0,
				telemetry.Arg{Key: "canceled", Val: strconv.Itoa(out.Canceled)},
				telemetry.Arg{Key: "leaked", Val: strconv.Itoa(out.Leaked)})
			out.Recorder.Disable()
		}
		return out, fmt.Errorf("%w: %d of %d trials unfinished (%v)", ErrInterrupted, out.Canceled, len(trials), ctx.Err())
	}
	return out, nil
}

// maxPanicStack bounds the stack capture embedded in a panicking trial's
// error: enough frames to find the fault, small enough for results.json.
const maxPanicStack = 4096

// runTrial executes one trial on its own goroutine with an isolated sink,
// converting a panic into a trial error (with a truncated stack, so a CI
// failure is debuggable from results.json alone) and enforcing the trial
// timeout and campaign cancellation.
//
// The worker goroutine never blocks on a hung trial forever: cancellation is
// raised cooperatively first (the trial's flag, observed by Canceled() and
// attached engines), and after Options.CancelGrace the trial goroutine is
// abandoned — it keeps running detached on its isolated sink, the worker
// records the leak and moves on. That is the last-resort trade the pool
// makes to keep draining when a trial ignores every cooperative signal.
func runTrial(ctx context.Context, t Trial, seed int64, opts Options) (TrialResult, *telemetry.Recorder, trialStatus) {
	sink := telemetry.NewSink()
	if opts.Trace {
		sink.Recorder().Enable()
	}
	var canceled atomic.Bool
	tc := &T{Key: t.Key, Seed: seed, Sink: sink, canceled: &canceled}
	res := TrialResult{Key: t.Key, Seed: seed}

	type outcome struct {
		payload any
		err     error
	}
	done := make(chan outcome, 1) // buffered: an abandoned trial must not block on send
	started := time.Now()
	go func() {
		var payload any
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					stack := debug.Stack()
					if len(stack) > maxPanicStack {
						stack = append(stack[:maxPanicStack], []byte("\n... stack truncated ...")...)
					}
					err = fmt.Errorf("panic: %v\n%s", p, stack)
				}
			}()
			payload, err = t.Run(tc)
		}()
		done <- outcome{payload, err}
	}()

	var timeoutCh <-chan time.Time
	if opts.TrialTimeout > 0 {
		timer := time.NewTimer(opts.TrialTimeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}

	finish := func(o outcome) (TrialResult, *telemetry.Recorder, trialStatus) {
		res.Wall = time.Since(started)
		res.Metrics = sink.Snapshot()
		if o.err != nil {
			res.Err = o.err.Error()
			return res, sink.Recorder(), statusDone
		}
		if o.payload != nil {
			blob, merr := json.Marshal(o.payload)
			if merr != nil {
				res.Err = fmt.Sprintf("encoding payload: %v", merr)
				return res, sink.Recorder(), statusDone
			}
			res.Payload = blob
		}
		return res, sink.Recorder(), statusDone
	}

	grace := opts.CancelGrace
	if grace <= 0 {
		grace = time.Second
	}
	awaitGrace := func() (outcome, bool) {
		canceled.Store(true)
		gt := time.NewTimer(grace)
		defer gt.Stop()
		select {
		case o := <-done:
			return o, true
		case <-gt.C:
			return outcome{}, false
		}
	}

	select {
	case o := <-done:
		return finish(o)

	case <-ctx.Done():
		// Campaign shutdown: cancel cooperatively and give the trial the
		// grace window to unwind. A nil error means the trial completed
		// (cooperative units that stop early return ErrTrialCanceled or
		// sim.ErrCanceled), so its result is kept, as in the timeout
		// branch's photo finish; anything else is partial and re-runs on
		// resume.
		o, ok := awaitGrace()
		if !ok {
			return res, nil, statusCanceledLeaked
		}
		if o.err == nil {
			return finish(o)
		}
		return res, nil, statusNotRun

	case <-timeoutCh:
		o, ok := awaitGrace()
		if !ok {
			// The trial ignored cancellation; abandon its goroutine. Its
			// sink may still be written to, so no snapshot is taken.
			res.Wall = time.Since(started)
			res.Err = fmt.Sprintf("trial timed out after %v; goroutine abandoned after %v grace", opts.TrialTimeout, grace)
			return res, nil, statusLeaked
		}
		if o.err == nil {
			// Photo finish: the trial completed validly inside the grace
			// window. Keep the real result.
			return finish(o)
		}
		res.Wall = time.Since(started)
		res.Metrics = sink.Snapshot()
		res.Err = fmt.Sprintf("trial timed out after %v: %v", opts.TrialTimeout, o.err)
		return res, sink.Recorder(), statusTimedOut
	}
}

// fillOps publishes the run's operational (wall-clock) metrics.
func fillOps(o *Outcome, workers int, cache *diskCache, results []TrialResult) {
	o.Ops.Gauge("sweep.pool.workers").Set(float64(workers))
	o.Ops.Counter("sweep.trials.executed").Add(int64(o.Executed))
	o.Ops.Counter("sweep.trials.cached").Add(int64(o.Cached))
	o.Ops.Counter("sweep.trials.failed").Add(int64(o.Failed))
	o.Ops.Counter("sweep.trials.canceled").Add(int64(o.Canceled))
	o.Ops.Counter("sweep.trials.timed_out").Add(int64(o.TimedOut))
	o.Ops.Counter("sweep.trials.leaked").Add(int64(o.Leaked))
	if cache != nil {
		o.Ops.Counter("sweep.cache.quarantined").Add(cache.quarantined.Load())
	}
	h := o.Ops.Histogram("sweep.trial_wall_ms", telemetry.ExpBuckets(1, 4, 10))
	var busy time.Duration
	for _, r := range results {
		if r.Cached || r.Wall == 0 {
			continue
		}
		h.Observe(float64(r.Wall) / float64(time.Millisecond))
		busy += r.Wall
	}
	if o.Elapsed > 0 && workers > 0 {
		util := busy.Seconds() / (o.Elapsed.Seconds() * float64(workers))
		o.Ops.Gauge("sweep.pool.utilization").Set(util)
	}
}
