package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cas "mkos/internal/simd/store"
	"mkos/internal/simd/worker"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
	oplog "mkos/internal/telemetry/ops/log"
)

// campaign is the in-memory state of one admitted campaign.
type campaign struct {
	id    string
	canon []byte // canonical spec JSON (what the id hashes)
	built *sweep.Campaign

	// st is the current wire status; guarded by Server.mu.
	st Status
	// cancel stops the running sweep; cancelReq distinguishes an operator
	// cancel from a drain. Guarded by Server.mu.
	cancel    context.CancelFunc
	cancelReq bool
	// busy marks a campaign that failed because another daemon held its
	// sweep journal (sweep.ErrJournalBusy): a transient conflict, surfaced
	// as HTTP 409 and cleared by resubmission. Guarded by Server.mu.
	busy bool
	// submitted anchors the submit-to-result latency observation (reset to
	// the requeue instant for campaigns resumed after a restart). runStart
	// anchors the per-trial ETA estimate; guarded by Server.mu.
	submitted time.Time
	runStart  time.Time

	// span is the campaign's ops flight-recorder span, opened at admission
	// (parented under the submitting request) and ended at settlement;
	// waitSpan covers the queue wait from the persisted admission to
	// dispatch. span is written before the campaign is shared, waitSpan
	// under Server.mu before the push that lets a dispatcher or a cancel
	// read it (or under Server.mu on a requeue), and the spans themselves
	// are internally synchronized and nil-safe.
	span     *ops.Span
	waitSpan *ops.Span
}

// Server is the campaign daemon: admission, fair queueing, dispatch to
// supervised worker processes, persistence, and recovery. Trial code never
// runs in its process.
type Server struct {
	opts   Options
	store  *store
	queue  *fairQueue
	ops    *telemetry.Registry
	log    *oplog.Logger
	tracer *ops.Tracer
	events *broker

	mu    sync.Mutex
	camps map[string]*campaign

	draining atomic.Bool
	hardKill atomic.Bool
	reqSeq   atomic.Int64

	//simlint:allow ctxflow — daemon-lifetime context: born in NewServer, canceled by Drain/Kill; it scopes the dispatcher pool, not any single call
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
	// reaps counts supervisors whose workers reported done but may not
	// have exited yet; Drain and Kill wait for it after the dispatchers.
	reaps sync.WaitGroup

	latency *telemetry.Histogram
	mux     *http.ServeMux
	handler http.Handler
}

// NewServer opens (or creates) the store, recovers persisted campaigns —
// re-admitting every non-terminal one — and prepares the dispatcher pool.
// Call Start to begin executing campaigns and Handler to serve the API.
func NewServer(opts Options) (*Server, error) {
	if opts.Store == "" {
		return nil, errors.New("simd: Options.Store is required")
	}
	if len(opts.Worker.Cmd) == 0 {
		return nil, errors.New("simd: Options.Worker.Cmd is required")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.MaxPerClient <= 0 {
		opts.MaxPerClient = 8
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 2 * time.Second
	}
	if opts.Build == nil {
		opts.Build = func(s *campaigns.Spec) (*sweep.Campaign, error) { return s.Campaign() }
	}
	level := oplog.Info
	if opts.LogLevel != "" {
		var err error
		if level, err = oplog.ParseLevel(opts.LogLevel); err != nil {
			return nil, err
		}
	}
	st, err := openStore(opts.Store, opts.StoreFault)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		store:  st,
		queue:  newFairQueue(opts.MaxQueue, opts.MaxPerClient),
		ops:    telemetry.NewRegistry(),
		log:    oplog.New(opts.Log, level),
		tracer: ops.New(0),
		events: newBroker(),
		camps:  make(map[string]*campaign),
	}
	s.latency = s.ops.Histogram("simd.submit_to_result_ms", telemetry.ExpBuckets(1, 2, 20))
	//simlint:allow ctxflow — root of the daemon-lifetime context; cancellation comes from Drain/Kill, not a caller
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.buildMux()
	// Scrub before recovery: recovery must never trust a corrupt spec or mark
	// a campaign done on the strength of corrupt results.
	rep, err := st.Scrub()
	if err != nil {
		return nil, fmt.Errorf("simd: store scrub: %w", err)
	}
	if len(rep.Quarantined) > 0 {
		s.ops.Counter("simd.store.quarantined").Add(int64(len(rep.Quarantined)))
		s.log.Warn(fmt.Sprintf("store scrub quarantined %d corrupt artifacts", len(rep.Quarantined)),
			oplog.F("quarantined", len(rep.Quarantined)), oplog.F("checked", rep.Checked),
			oplog.F("paths", fmt.Sprint(rep.Quarantined)))
	}
	if rep.Checked > 0 || rep.Backfilled > 0 {
		s.log.Debug(fmt.Sprintf("store scrub verified %d artifacts (%d sidecars backfilled)", rep.Checked, rep.Backfilled),
			oplog.F("checked", rep.Checked), oplog.F("backfilled", rep.Backfilled))
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover re-admits persisted campaigns: terminal ones become servable
// history, non-terminal ones (queued, running or interrupted at the moment
// of a crash or drain) are rebuilt and requeued. The sweep cache makes the
// requeued work nearly free: every trial that finished in a previous
// incarnation restores from its verified entry without re-executing.
func (s *Server) recover() error {
	stored, err := s.store.scan()
	if err != nil {
		return err
	}
	for _, sc := range stored {
		st := sc.status
		st.ID = sc.id // trust the directory name over a torn status
		c := &campaign{id: sc.id, canon: sc.spec, st: st, submitted: time.Now()}
		resume := !c.st.Terminal()
		if !resume && c.st.State == StateDone {
			// A done status must have verifiable results behind it; if the
			// scrubber quarantined them (or they vanished), the sweep cache
			// still holds every trial, so re-running is cheap and restores them.
			if _, rerr := s.store.ReadArtifact(s.store.Path(sc.id, "results.json")); rerr != nil {
				resume = true
				s.log.Warn(fmt.Sprintf("campaign %s results missing or corrupt; re-running from the trial cache", sc.id),
					oplog.F("campaign", sc.id), oplog.F("err", rerr.Error()))
			}
		}
		if !resume {
			s.camps[sc.id] = c
			continue
		}
		built, perr := s.build(sc.spec)
		if perr != nil {
			c.st.State = StateFailed
			c.st.Err = fmt.Sprintf("recovery: %v", perr)
			s.camps[sc.id] = c
			s.store.putStatus(sc.id, &c.st)
			s.log.Error(fmt.Sprintf("campaign %s failed in recovery", sc.id),
				oplog.F("campaign", sc.id), oplog.F("err", perr.Error()))
			continue
		}
		c.built = built
		c.st.State = StateQueued
		c.st.Total = len(built.Trials)
		c.st.Executed, c.st.Cached, c.st.Failed, c.st.Err = 0, 0, 0, ""
		c.st.Restarts, c.st.LastExit, c.st.Breaker = 0, "", ""
		//simlint:allow ctxflow — recovery runs before Start; there is no inbound request whose ctx these spans could inherit
		c.span, c.waitSpan = s.openSpans(context.Background(), sc.id, "recovered")
		s.camps[sc.id] = c
		// Recovered work bypasses the admission bounds: it was admitted by a
		// previous incarnation, and a client at its backlog limit with work
		// running at crash time legitimately exceeds them on requeue.
		if qerr := s.queue.pushRecovered(c.st.Client, c); qerr != nil {
			c.st.State = StateFailed
			c.st.Err = fmt.Sprintf("recovery requeue: %v", qerr)
			s.store.putStatus(sc.id, &c.st)
			continue
		}
		s.store.putStatus(sc.id, &c.st)
		s.ops.Counter("simd.resumed").Inc()
		s.log.Info(fmt.Sprintf("resumed campaign %s (%d trials)", sc.id, c.st.Total),
			oplog.F("campaign", sc.id), oplog.F("trials", c.st.Total))
		s.publishState(sc.id, StateQueued, "")
	}
	s.gaugeDepth()
	return nil
}

// build enumerates a persisted campaign from its canonical spec.
func (s *Server) build(canon []byte) (*sweep.Campaign, error) {
	spec, err := campaigns.ParseSpec(canon)
	if err != nil {
		return nil, err
	}
	return s.opts.Build(spec)
}

// openSpans starts a campaign's flight-recorder spans: the campaign root
// and the queue-wait child the dispatcher ends when it pops the campaign.
func (s *Server) openSpans(ctx context.Context, id, how string) (span, waitSpan *ops.Span) {
	ctx, span = s.campaignSpan(ctx, id, how)
	_, waitSpan = ops.Start(ctx, "queue-wait")
	return span, waitSpan
}

// campaignSpan starts a campaign's root span, on its own Perfetto lane and
// causally parented under whatever span rides ctx (the submitting HTTP
// request, or nothing for a recovered campaign), and returns ctx carrying
// it.
func (s *Server) campaignSpan(ctx context.Context, id, how string) (context.Context, *ops.Span) {
	return ops.StartTrack(ops.Attach(ctx, s.tracer), "campaign",
		ops.Arg{Key: "campaign", Val: id}, ops.Arg{Key: "admitted", Val: how})
}

// Start launches the dispatcher pool.
func (s *Server) Start() {
	for i := 0; i < s.opts.Concurrency; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				c, ok := s.queue.pop()
				if !ok {
					return
				}
				s.gaugeDepth()
				s.runCampaign(s.runCtx, c)
			}
		}()
	}
}

// Drain is the graceful-shutdown path behind SIGTERM: stop admitting (new
// submissions see a typed 503, health checks go non-200), give running
// campaigns DrainGrace to finish naturally, then cancel them cooperatively —
// their finished trials are journaled, their statuses persist as interrupted
// — and return once every dispatcher has settled and every worker has been
// reaped. Queued campaigns stay queued on disk; the next incarnation resumes
// everything. Live event streams are released so their handlers return.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.queue.close()
	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(s.opts.DrainGrace):
		s.runCancel()
		<-settled
	}
	s.reaps.Wait()
	s.events.closeAll()
	s.log.Info(fmt.Sprintf("drained: %d campaigns left queued for the next start", s.queue.size()),
		oplog.F("queued", s.queue.size()))
}

// Kill is the crash-simulation path (tests and the chaos harness): stop
// everything mid-flight with no persistence courtesy — statuses stay
// whatever the last atomic write made them, exactly as a SIGKILL would leave
// them — and wait only for the dispatcher goroutines to exit and their
// workers to be reaped, so a successor Server may safely open the same
// store and no worker outlives the Server.
func (s *Server) Kill() {
	s.hardKill.Store(true)
	s.draining.Store(true)
	s.queue.close()
	s.runCancel()
	s.wg.Wait()
	s.reaps.Wait()
	s.events.closeAll()
}

// runCampaign executes one campaign through a supervised worker and settles
// its state. ctx is the dispatcher's run context: canceling it (drain
// deadline, hard kill) cancels the worker.
func (s *Server) runCampaign(ctx context.Context, c *campaign) {
	if c.built == nil {
		// Requeued after a terminal state (crash_loop, journal conflict) by a
		// daemon that recovered it from disk: rebuild from the canonical spec.
		built, perr := s.build(c.canon)
		if perr != nil {
			s.mu.Lock()
			c.waitSpan.End(ops.Arg{Key: "outcome", Val: "rejected"})
			s.mu.Unlock()
			s.settle(c, StateFailed, nil, fmt.Sprintf("rebuild: %v", perr))
			return
		}
		s.mu.Lock()
		c.built = built
		s.mu.Unlock()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	c.cancel = cancel
	preCanceled := c.cancelReq
	c.st.State = StateRunning
	c.st.Breaker = "closed"
	c.runStart = time.Now()
	st := c.st
	span, waitSpan := c.span, c.waitSpan
	s.mu.Unlock()
	waitSpan.End()
	if preCanceled {
		// A cancel accepted between the dispatcher's pop and this point found
		// c.cancel still nil; honor it now so the 202 the operator already
		// holds is not lost and the campaign does not run to completion.
		cancel()
	}
	if !s.hardKill.Load() {
		s.store.putStatus(c.id, &st)
	}
	s.observe(c.id, StateRunning)
	s.publishState(c.id, StateRunning, "")
	s.log.Info(fmt.Sprintf("campaign %s running", c.id),
		oplog.F("campaign", c.id), oplog.F("trials", st.Total))

	// The dispatcher runs on its own context (cancellation: drain or an
	// operator cancel), so the flight-recorder linkage is re-attached
	// explicitly: the run span and its trial spans parent under the campaign
	// span the submit request opened.
	rctx := ops.WithSpan(ops.Attach(ctx, s.tracer), span)
	rctx, runSpan := ops.Start(rctx, "run")
	s.runWorker(rctx, runSpan, c)
}

// runWorker executes one campaign out of process through a supervised worker
// (internal/simd/worker). The worker writes the journal and the artifacts;
// the supervisor restarts it across deaths; this side relays trial events,
// mirrors restart accounting into the campaign status, and settles from the
// terminal Result as soon as the worker reports done. The worker's exit is
// collected in the background and joined by Drain and Kill.
func (s *Server) runWorker(ctx context.Context, runSpan *ops.Span, c *campaign) {
	w := s.opts.Worker
	// Preflight the journal flock so a cross-daemon conflict is detected
	// without burning worker incarnations into the crash-loop breaker. The
	// probe releases the flock on every path (it belongs to the probe's
	// descriptor); other probe errors are left for the worker to report with
	// full context.
	if _, perr := sweep.ProbeJournal(s.store.CacheDir(), s.opts.Version, c.built.Name, c.built.Seed); errors.Is(perr, sweep.ErrJournalBusy) {
		s.mu.Lock()
		c.cancel = nil
		s.mu.Unlock()
		runSpan.End(ops.Arg{Key: "err", Val: perr.Error()})
		s.settleBusy(c, nil, perr.Error())
		return
	}
	sup := &worker.Supervisor{
		Cmd:              w.Cmd,
		Env:              w.Env,
		RSSLimit:         w.RSSLimit,
		Deadline:         w.Deadline,
		HeartbeatTimeout: w.HeartbeatTimeout,
		CrashLoopK:       w.CrashLoopK,
		BackoffBase:      w.BackoffBase,
		BackoffMax:       w.BackoffMax,
		JournalPath:      sweep.JournalPath(s.store.CacheDir(), s.opts.Version, c.built.Name, c.built.Seed),
		OnSpawn: func(attempt, pid int) {
			s.log.Info(fmt.Sprintf("campaign %s worker spawned (attempt %d, pid %d)", c.id, attempt, pid),
				oplog.F("campaign", c.id), oplog.F("attempt", attempt), oplog.F("pid", pid))
			if w.SpawnHook != nil {
				w.SpawnHook(c.built.Name, attempt, pid)
			}
		},
		OnTrial: func(ev worker.Event) {
			// One flight-recorder span per trial, so /v1/trace shows the
			// campaign's trials under its run span. Wall time already elapsed
			// in the worker; the span records it as an annotation.
			_, tspan := ops.StartTrack(ctx, "trial", ops.Arg{Key: "key", Val: ev.Key})
			args := []ops.Arg{{Key: "wall_ms", Val: fmt.Sprintf("%.3f", ev.WallMS)}}
			if ev.Cached {
				args = append(args, ops.Arg{Key: "cached", Val: "true"})
			}
			if ev.Err != "" {
				args = append(args, ops.Arg{Key: "err", Val: ev.Err})
			}
			tspan.End(args...)
			s.publishTrial(c, ev)
		},
		OnExit: func(attempt int, cause string) {
			s.mu.Lock()
			c.st.Restarts++
			c.st.LastExit = cause
			st := c.st
			s.mu.Unlock()
			if !s.hardKill.Load() {
				s.store.putStatus(c.id, &st)
			}
			s.ops.Counter("simd.worker.deaths").Inc()
			s.log.Warn(fmt.Sprintf("campaign %s worker died (%s); death %d", c.id, cause, st.Restarts),
				oplog.F("campaign", c.id), oplog.F("cause", cause), oplog.F("restarts", st.Restarts))
			s.events.publish(c.id, Event{Type: "worker", Err: cause, Restarts: st.Restarts})
		},
		Logf: func(format string, args ...any) {
			s.log.Debug(fmt.Sprintf(format, args...), oplog.F("campaign", c.id))
		},
	}
	res, err := sup.Run(ctx, worker.Request{
		Spec:           json.RawMessage(c.canon),
		CacheDir:       s.store.CacheDir(),
		ArtifactDir:    s.store.CampaignDir(c.id),
		Workers:        s.opts.Workers,
		TrialTimeoutMS: int64(s.opts.TrialTimeout / time.Millisecond),
		CancelGraceMS:  int64(s.opts.CancelGrace / time.Millisecond),
		Version:        s.opts.Version,
	})
	s.reaps.Add(1)
	go func() {
		defer s.reaps.Done()
		sup.Wait()
	}()
	if err != nil {
		s.mu.Lock()
		c.cancel = nil
		s.mu.Unlock()
		runSpan.End(ops.Arg{Key: "err", Val: err.Error()})
		s.settle(c, StateFailed, nil, err.Error())
		s.log.Error(fmt.Sprintf("campaign %s worker supervisor failed", c.id),
			oplog.F("campaign", c.id), oplog.F("err", err.Error()))
		return
	}

	t := &res.Summary
	s.ops.Counter("simd.trials.executed").Add(int64(t.Executed))
	s.ops.Counter("simd.trials.cached").Add(int64(t.Cached))
	s.ops.Counter("simd.trials.failed").Add(int64(t.Failed))
	if res.Ops != nil {
		s.ops.AddSnapshot(res.Ops)
	}
	runSpan.End(
		ops.Arg{Key: "executed", Val: strconv.Itoa(t.Executed)},
		ops.Arg{Key: "cached", Val: strconv.Itoa(t.Cached)},
		ops.Arg{Key: "failed", Val: strconv.Itoa(t.Failed)},
		ops.Arg{Key: "restarts", Val: strconv.Itoa(res.Restarts)})

	s.mu.Lock()
	c.cancel = nil
	canceled := c.cancelReq
	total := c.st.Total
	c.st.Restarts, c.st.LastExit = res.Restarts, res.LastExit
	if res.State == worker.StateCrashLoop {
		c.st.Breaker = "open"
	}
	s.mu.Unlock()

	switch res.State {
	case worker.StateDone:
		// The worker wrote (and checksummed) the artifacts before its done
		// event; nothing to persist here but the status.
		s.settle(c, StateDone, t, "")
		s.log.Info(fmt.Sprintf("campaign %s: %d trials: %d executed, %d cached, %d failed (%d worker restarts)",
			c.id, total, t.Executed, t.Cached, t.Failed, res.Restarts),
			oplog.F("campaign", c.id), oplog.F("executed", t.Executed),
			oplog.F("cached", t.Cached), oplog.F("failed", t.Failed),
			oplog.F("restarts", res.Restarts))

	case worker.StateInterrupted:
		if canceled {
			s.settle(c, StateCanceled, t, "")
			s.log.Info(fmt.Sprintf("campaign %s canceled", c.id), oplog.F("campaign", c.id))
		} else {
			// Drain or hard kill: the campaign is paused, not over. Its
			// finished trials are journaled; settle persists the interruption
			// (except under a simulated crash) so the next incarnation
			// requeues it.
			s.settle(c, StateInterrupted, t, "")
			s.log.Info(fmt.Sprintf("campaign %s interrupted: %d trials journaled for resume", c.id, t.Executed+t.Cached),
				oplog.F("campaign", c.id), oplog.F("journaled", t.Executed+t.Cached))
		}

	case worker.StateCrashLoop:
		s.settle(c, StateCrashLoop, t, res.Err)
		s.log.Error(fmt.Sprintf("campaign %s crash-looped: breaker open after %d worker deaths (last: %s)",
			c.id, res.Restarts, res.LastExit),
			oplog.F("campaign", c.id), oplog.F("restarts", res.Restarts), oplog.F("last_exit", res.LastExit))

	default: // worker.StateFailed
		if res.Reason == worker.ReasonJournalBusy {
			s.settleBusy(c, t, res.Err)
			return
		}
		s.settle(c, StateFailed, t, res.Err)
		s.log.Error(fmt.Sprintf("campaign %s failed", c.id),
			oplog.F("campaign", c.id), oplog.F("err", res.Err))
	}
}

// settle moves a campaign to its post-run state, persists it (except under a
// simulated crash), publishes the state transition to live streams, and
// records the latency observation for terminal outcomes. t, when non-nil, is
// the worker's trial accounting.
func (s *Server) settle(c *campaign, state string, t *worker.Summary, errMsg string) {
	s.mu.Lock()
	c.st.State = state
	c.st.Err = errMsg
	if t != nil {
		c.st.Executed, c.st.Cached, c.st.Failed = t.Executed, t.Cached, t.Failed
	}
	st := c.st
	elapsed := time.Since(c.submitted)
	// End the span before the state change is observable (the mu release): a
	// client that polls the status to a terminal state and immediately
	// fetches the trace must find the campaign span in it.
	c.span.End(ops.Arg{Key: "state", Val: state})
	s.mu.Unlock()
	if !s.hardKill.Load() {
		s.store.putStatus(c.id, &st)
	}
	if st.Terminal() {
		s.latency.Observe(float64(elapsed) / float64(time.Millisecond))
		s.ops.Counter("simd.campaigns." + state).Inc()
	}
	s.observe(c.id, state)
	s.publishState(c.id, state, errMsg)
	if st.Terminal() {
		s.events.closeLog(c.id)
	}
}

// settleBusy fails a campaign whose journal another daemon holds — a
// deployment overlap, not a campaign defect. The state is failed (this
// daemon cannot run it) but the conflict is transient: results requests
// answer 409 and a resubmission requeues the campaign.
func (s *Server) settleBusy(c *campaign, t *worker.Summary, errMsg string) {
	s.mu.Lock()
	c.busy = true
	s.mu.Unlock()
	s.settle(c, StateFailed, t, errMsg)
	s.log.Warn(fmt.Sprintf("campaign %s journal is held by another daemon", c.id),
		oplog.F("campaign", c.id), oplog.F("err", errMsg))
}

// publishState emits a lifecycle transition on the campaign's event stream.
func (s *Server) publishState(id, state, errMsg string) {
	s.events.publish(id, Event{Type: "state", State: state, Err: errMsg})
}

// publishTrial relays one finished trial from the worker's event stream onto
// the campaign's event stream, adding the wall-clock ETA estimate.
func (s *Server) publishTrial(c *campaign, ev worker.Event) {
	e := Event{
		Type: "trial", Key: ev.Key, Cached: ev.Cached, TrialErr: ev.Err,
		WallMS: ev.WallMS, Done: ev.Done, Total: ev.Total,
	}
	if ev.Done > 0 && ev.Done < ev.Total {
		s.mu.Lock()
		start := c.runStart
		s.mu.Unlock()
		if !start.IsZero() {
			elapsed := time.Since(start)
			e.ETAMS = int64(float64(elapsed) / float64(ev.Done) * float64(ev.Total-ev.Done) / float64(time.Millisecond))
		}
	}
	s.events.publish(c.id, e)
}

// Handler returns the daemon's HTTP API, wrapped in the observability
// middleware (request ids, request spans, structured access logs).
func (s *Server) Handler() http.Handler { return s.handler }

// Tracer exposes the daemon's ops flight recorder (tests and /v1/trace).
func (s *Server) Tracer() *ops.Tracer { return s.tracer }

// ListenAndServe serves the API on addr until ctx is canceled, then drains:
// stops admitting, finishes or journals in-flight work, and shuts the
// listener down. It returns once the drain completes.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	s.Start()
	s.log.Info(fmt.Sprintf("serving on %s (store %s)", addr, s.opts.Store),
		oplog.F("addr", addr), oplog.F("store", s.opts.Store))
	select {
	case err := <-errCh:
		s.queue.close()
		return err
	case <-ctx.Done():
	}
	s.log.Info("draining: admission closed, finishing or journaling in-flight campaigns")
	s.Drain()
	//simlint:allow ctxflow — shutdown runs after ctx.Done fired; deriving the HTTP-shutdown deadline from the already-canceled parent would skip the grace period
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shctx)
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
	s.handler = s.withObservability(mux)
}

// statusWriter captures the response status for the access log and forwards
// Flush, which the SSE handler requires through the middleware wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability assigns every request an id, opens its flight-recorder
// span (the causal root every campaign span parents under), and writes one
// structured access-log line. Health and metrics probes log at debug so a
// tight wait-up or scrape loop does not flood the info log.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		ctx := ops.WithRequest(ops.Attach(r.Context(), s.tracer), reqID)
		ctx, span := ops.Start(ctx, r.Method+" "+r.URL.Path,
			ops.Arg{Key: "client", Val: clientID(r)})
		w.Header().Set("X-Simd-Request", reqID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		span.End(ops.Arg{Key: "status", Val: strconv.Itoa(sw.status)})
		logf := s.log.Info
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/v1/metrics" {
			logf = s.log.Debug
		}
		logf(fmt.Sprintf("%s %s -> %d", r.Method, r.URL.Path, sw.status),
			oplog.F("request_id", reqID), oplog.F("method", r.Method),
			oplog.F("path", r.URL.Path), oplog.F("status", sw.status),
			oplog.F("ms", float64(time.Since(start))/float64(time.Millisecond)),
			oplog.F("client", clientID(r)))
	})
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func reject(w http.ResponseWriter, code int, reason, detail string, retryAfter time.Duration) {
	writeJSON(w, code, ErrorResponse{Error: reason, Detail: detail, RetryAfterMS: int64(retryAfter / time.Millisecond)})
}

// clientID resolves the requester's fairness identity: the self-declared
// X-Simd-Client header when present (trusted — fairness is cooperative
// scheduling, not security), else the peer host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Simd-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		reject(w, http.StatusRequestEntityTooLarge, ReasonTooLarge,
			fmt.Sprintf("spec bodies are capped at %d bytes", MaxSpecBytes), 0)
		return
	}
	if s.draining.Load() {
		s.ops.Counter("simd.rejected.draining").Inc()
		reject(w, http.StatusServiceUnavailable, ReasonDraining, "daemon is draining; retry against the next incarnation", time.Second)
		return
	}
	id, spec, err := SpecID(body)
	if err != nil {
		reject(w, http.StatusBadRequest, ReasonBadSpec, err.Error(), 0)
		return
	}
	client := clientID(r)

	s.mu.Lock()
	if c, ok := s.camps[id]; ok {
		// A resubmission un-wedges two terminal-but-retryable states: a
		// journal conflict (the other daemon may be gone) and a tripped
		// crash-loop breaker (the operator's signal to re-arm it). The
		// dispatcher rebuilds c.built from the canonical spec if recovery
		// left it nil.
		if (c.busy || c.st.State == StateCrashLoop) && c.st.Terminal() {
			s.requeueBusyLocked(w, r, c)
			return
		}
		st := c.st
		s.mu.Unlock()
		st.Deduped = true
		s.ops.Counter("simd.deduped").Inc()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mu.Unlock()

	built, err := s.opts.Build(spec)
	if err != nil {
		reject(w, http.StatusBadRequest, ReasonBadSpec, err.Error(), 0)
		return
	}
	canon, err := json.Marshal(spec)
	if err != nil {
		reject(w, http.StatusBadRequest, ReasonBadSpec, err.Error(), 0)
		return
	}

	c := &campaign{
		id: id, canon: canon, built: built, submitted: time.Now(),
		st: Status{ID: id, Client: client, State: StateQueued, Total: len(built.Trials)},
	}
	// The campaign span opens before the campaign is shared, so no
	// concurrent reader ever observes the pointer half-written. Its
	// queue-wait child opens once admission has persisted the campaign.
	cctx, span := s.campaignSpan(r.Context(), id, "submitted")
	c.span = span
	s.mu.Lock()
	if prev, ok := s.camps[id]; ok {
		// Two identical submissions raced past the first check; the earlier
		// winner owns the campaign.
		st := prev.st
		s.mu.Unlock()
		c.span.End(ops.Arg{Key: "state", Val: "deduped"})
		st.Deduped = true
		s.ops.Counter("simd.deduped").Inc()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.camps[id] = c
	// Snapshot the queued status while it is still ours alone: once pushed,
	// a dispatcher may pop and mutate c.st concurrently, so the admission
	// response must come from this copy.
	st := c.st
	s.mu.Unlock()

	// Durable before dispatchable: once the spec and queued status are on
	// disk, a crash cannot lose the admission, so persist before push and
	// respond after both. The fsync'd writes get their own span.
	_, admitSpan := ops.Start(cctx, "admit")
	err = s.store.admit(id, canon, &st)
	admitSpan.End()
	if err != nil {
		s.forget(id)
		s.store.Remove(id)
		c.span.End(ops.Arg{Key: "state", Val: "rejected"})
		if cas.IsNoSpace(err) {
			// A full disk must refuse work, not half-persist it: admitting a
			// campaign whose journal writes will fail would burn its trials.
			s.ops.Counter("simd.rejected.no_space").Inc()
			reject(w, http.StatusInsufficientStorage, ReasonNoSpace, err.Error(), 0)
			return
		}
		reject(w, http.StatusInternalServerError, "store_error", err.Error(), 0)
		return
	}
	// No dispatcher or cancel reads the pointer before the push below.
	s.mu.Lock()
	_, c.waitSpan = ops.Start(cctx, "queue-wait")
	s.mu.Unlock()
	if err := s.queue.push(client, c); err != nil {
		// The spec and queued status persisted just above must not outlive
		// the rejection: recovery would otherwise resurrect and run a
		// campaign whose client was explicitly refused.
		s.forget(id)
		s.store.Remove(id)
		c.waitSpan.End(ops.Arg{Key: "outcome", Val: "rejected"})
		c.span.End(ops.Arg{Key: "state", Val: "rejected"})
		switch {
		case errors.Is(err, errQueueFull):
			s.ops.Counter("simd.rejected.queue_full").Inc()
			reject(w, http.StatusTooManyRequests, ReasonQueueFull,
				fmt.Sprintf("queue holds %d campaigns", s.opts.MaxQueue), 250*time.Millisecond)
		case errors.Is(err, errClientBacklog):
			s.ops.Counter("simd.rejected.client_backlog").Inc()
			reject(w, http.StatusTooManyRequests, ReasonClientBacklog,
				fmt.Sprintf("client %q already has %d campaigns queued", client, s.opts.MaxPerClient), 250*time.Millisecond)
		default:
			s.ops.Counter("simd.rejected.draining").Inc()
			reject(w, http.StatusServiceUnavailable, ReasonDraining, "daemon is draining", time.Second)
		}
		return
	}
	s.gaugeDepth()
	s.ops.Counter("simd.admitted").Inc()
	s.log.Info(fmt.Sprintf("admitted campaign %s (client %s, %d trials)", id, client, st.Total),
		oplog.F("campaign", id), oplog.F("request_id", ops.RequestID(r.Context())),
		oplog.F("client", client), oplog.F("trials", st.Total))
	s.observe(id, StateQueued)
	s.publishState(id, StateQueued, "")
	writeJSON(w, http.StatusAccepted, st)
}

// requeueBusyLocked retries a campaign that settled terminal-but-retryable:
// failed on a held journal (the resubmission is the operator's signal that
// the other daemon may be gone) or crash-looped (the resubmission re-arms the
// breaker). Called with s.mu held; releases it.
func (s *Server) requeueBusyLocked(w http.ResponseWriter, r *http.Request, c *campaign) {
	c.busy = false
	c.cancelReq = false
	c.st.State = StateQueued
	c.st.Executed, c.st.Cached, c.st.Failed, c.st.Err = 0, 0, 0, ""
	c.st.Restarts, c.st.LastExit, c.st.Breaker = 0, "", ""
	c.submitted = time.Now()
	c.span, c.waitSpan = s.openSpans(r.Context(), c.id, "requeued")
	st := c.st
	s.mu.Unlock()
	if err := s.queue.push(st.Client, c); err != nil {
		s.mu.Lock()
		c.busy = true
		c.st.State = StateFailed
		span, waitSpan := c.span, c.waitSpan
		s.mu.Unlock()
		waitSpan.End(ops.Arg{Key: "outcome", Val: "rejected"})
		span.End(ops.Arg{Key: "state", Val: StateFailed})
		reject(w, http.StatusConflict, ReasonJournalBusy,
			"campaign journal was held by another daemon and the retry could not be queued", time.Second)
		return
	}
	s.store.putStatus(c.id, &st)
	s.gaugeDepth()
	s.log.Info(fmt.Sprintf("requeued campaign %s after journal conflict", c.id),
		oplog.F("campaign", c.id), oplog.F("request_id", ops.RequestID(r.Context())))
	s.observe(c.id, StateQueued)
	s.publishState(c.id, StateQueued, "")
	writeJSON(w, http.StatusAccepted, st)
}

// forget removes a campaign that failed to finish admission; its partial
// store directory, if any, must not shadow a future resubmission.
func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.camps, id)
	s.mu.Unlock()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c, ok := s.camps[r.PathValue("id")]
	var st Status
	if ok {
		st = c.st
	}
	s.mu.Unlock()
	if !ok {
		reject(w, http.StatusNotFound, ReasonNotFound, "no such campaign", 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleList returns every known campaign's status, sorted by id — the
// fleet view simctl top renders.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sts := make([]Status, 0, len(s.camps))
	for _, c := range s.camps {
		sts = append(sts, c.st)
	}
	s.mu.Unlock()
	sort.Slice(sts, func(i, j int) bool { return sts[i].ID < sts[j].ID })
	writeJSON(w, http.StatusOK, sts)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c, ok := s.camps[id]
	var st Status
	var busy bool
	if ok {
		st, busy = c.st, c.busy
	}
	s.mu.Unlock()
	if !ok {
		reject(w, http.StatusNotFound, ReasonNotFound, "no such campaign", 0)
		return
	}
	if busy {
		reject(w, http.StatusConflict, ReasonJournalBusy,
			"campaign journal is held by another daemon on this cache dir; resubmit to retry", time.Second)
		return
	}
	if st.State != StateDone {
		reject(w, http.StatusConflict, ReasonNotDone,
			fmt.Sprintf("campaign is %s%s", st.State, errSuffix(st.Err)), time.Second)
		return
	}
	blob, err := s.store.ReadArtifact(s.store.Path(id, "results.json"))
	if err != nil {
		reject(w, http.StatusInternalServerError, "store_error", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return ": " + e
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c, ok := s.camps[id]
	if !ok {
		s.mu.Unlock()
		reject(w, http.StatusNotFound, ReasonNotFound, "no such campaign", 0)
		return
	}
	switch c.st.State {
	case StateQueued:
		if s.queue.remove(id) {
			c.st.State = StateCanceled
			st := c.st
			// Spans end before the canceled state is observable, mirroring
			// settle: a status poll followed by a trace fetch must see them.
			c.waitSpan.End(ops.Arg{Key: "outcome", Val: "canceled"})
			c.span.End(ops.Arg{Key: "state", Val: StateCanceled})
			s.mu.Unlock()
			s.gaugeDepth()
			s.store.putStatus(id, &st)
			s.ops.Counter("simd.campaigns." + StateCanceled).Inc()
			s.log.Info(fmt.Sprintf("campaign %s canceled while queued", id),
				oplog.F("campaign", id), oplog.F("request_id", ops.RequestID(r.Context())))
			s.observe(id, StateCanceled)
			s.publishState(id, StateCanceled, "")
			s.events.closeLog(id)
			writeJSON(w, http.StatusOK, st)
			return
		}
		// A dispatcher popped it concurrently; fall through to the running
		// path.
		fallthrough
	case StateRunning:
		c.cancelReq = true
		if c.cancel != nil {
			c.cancel()
		}
		st := c.st
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
		return
	default:
		st := c.st
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the ops registry as a Prometheus text exposition.
// The body is reproducible for a fixed registry state (stable ordering), so
// shell gates can parse and re-scrape it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ops.WriteExposition(w, s.ops.Snapshot())
}

// handleTrace serves the ops flight recorder as Chrome trace_event JSON —
// load it in Perfetto beside a campaign's sim-time trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.tracer.WriteChromeTrace(w)
}

// handleHealthz answers 200 while serving and 503 once a drain begins, so a
// load balancer stops routing to a dying daemon. The body names the state
// either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "draining": true, "state": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": false, "state": "serving"})
}

// handleEvents streams a campaign's progress as Server-Sent Events: the full
// retained history first (SSE ids are the event sequence numbers), then live
// events until the campaign reaches a terminal state, the client goes away,
// or the daemon drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c, ok := s.camps[id]
	var st Status
	if ok {
		st = c.st
	}
	s.mu.Unlock()
	if !ok {
		reject(w, http.StatusNotFound, ReasonNotFound, "no such campaign", 0)
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		reject(w, http.StatusInternalServerError, "stream_unsupported", "response writer cannot flush", 0)
		return
	}
	replay, ch := s.events.subscribe(id)
	if len(replay) == 0 && st.Terminal() {
		// A campaign finished by a previous incarnation has no in-memory
		// history; synthesize its terminal state so the stream still tells
		// the whole (remaining) story.
		replay = []Event{{Seq: 1, Type: "state", ID: id, State: st.State, Err: st.Err}}
		if ch != nil {
			s.events.unsubscribe(id, ch)
			ch = nil
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	if ch == nil {
		return
	}
	defer s.events.unsubscribe(id, ch)
	for {
		select {
		case ev, live := <-ch:
			if !live {
				return // terminal state published, or the daemon drained
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one event: id is the sequence number, event the type,
// data the JSON payload.
func writeSSE(w io.Writer, ev Event) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, blob)
}

// Stats snapshots the daemon's operational counters.
func (s *Server) Stats() Stats {
	states := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0,
		StateFailed: 0, StateCanceled: 0, StateInterrupted: 0,
		StateCrashLoop: 0,
	}
	s.mu.Lock()
	for _, c := range s.camps {
		states[c.st.State]++ // commutative int fold: map order is immaterial
	}
	s.mu.Unlock()
	st := Stats{
		Draining:   s.draining.Load(),
		QueueDepth: s.queue.size(),
		Campaigns:  states,
		Admitted:   s.ops.CounterValue("simd.admitted"),
		Deduped:    s.ops.CounterValue("simd.deduped"),
		Resumed:    s.ops.CounterValue("simd.resumed"),
		Rejected: RejectStats{
			QueueFull:     s.ops.CounterValue("simd.rejected.queue_full"),
			ClientBacklog: s.ops.CounterValue("simd.rejected.client_backlog"),
			Draining:      s.ops.CounterValue("simd.rejected.draining"),
			NoSpace:       s.ops.CounterValue("simd.rejected.no_space"),
		},
		Trials: TrialStats{
			Executed: s.ops.CounterValue("simd.trials.executed"),
			Cached:   s.ops.CounterValue("simd.trials.cached"),
			Failed:   s.ops.CounterValue("simd.trials.failed"),
		},
	}
	if n := st.Trials.Executed + st.Trials.Cached; n > 0 {
		st.CacheHitRate = float64(st.Trials.Cached) / float64(n)
	}
	if st.SubmitToResultMS.Count = s.latency.Count(); st.SubmitToResultMS.Count > 0 {
		st.SubmitToResultMS.P50 = s.latency.Quantile(0.5)
		st.SubmitToResultMS.P90 = s.latency.Quantile(0.9)
		st.SubmitToResultMS.P99 = s.latency.Quantile(0.99)
		st.SubmitToResultMS.Max = s.latency.Quantile(1)
	}
	return st
}

// CampaignIDs returns the known campaign ids in sorted order (tests and
// debugging).
func (s *Server) CampaignIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.camps))
	for id := range s.camps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s *Server) gaugeDepth() {
	s.ops.Gauge("simd.queue.depth").Set(float64(s.queue.size()))
}

func (s *Server) observe(id, state string) {
	if s.opts.Observe != nil {
		s.opts.Observe(id, state)
	}
}
