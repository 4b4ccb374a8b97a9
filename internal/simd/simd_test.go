package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// Environment of the re-exec'd test worker (see TestMain): workerEnv turns
// the test binary into a worker, gateEnv names the harness directory its
// trial bodies talk through, and lingerEnv keeps the worker alive for that
// many milliseconds after its done event, like a worker slow to tear down.
const (
	workerEnv = "SIMD_TEST_WORKER"
	gateEnv   = "SIMD_TEST_GATE"
	lingerEnv = "SIMD_TEST_LINGER_MS"
)

// harness wires daemons to synthetic campaigns so tests exercise the real
// admission, queueing, dispatch, worker supervision, persistence and resume
// machinery with fast, controllable trial bodies. Every campaign runs in a
// re-exec of this test binary, so the harness reaches its trial bodies
// through files in its own directory: "block-" trials park until release
// creates the release file or they claim a token file from grant (polling
// cancellation meanwhile), and every trial body drops an entry-* file when
// it starts and a done-* file when it returns successfully. Counting those
// files is how tests wait for progress across the process boundary.
type harness struct {
	t   *testing.T
	dir string
}

func newHarness(t *testing.T) *harness {
	return &harness{t: t, dir: t.TempDir()}
}

// worker re-execs this test binary as the daemon's worker, wired to the
// harness directory, with fast restart backoff so crash-loop tests converge
// quickly. Under -race the worker skips the race runtime's default 1s sleep
// at exit, which the supervisor would otherwise wait out on every campaign.
func (h *harness) worker() simd.WorkerOptions {
	race := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	return simd.WorkerOptions{
		Cmd:         []string{os.Args[0]},
		Env:         append(os.Environ(), workerEnv+"=1", gateEnv+"="+h.dir, "GORACE="+race),
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// release lets every parked blocking trial finish.
func (h *harness) release() {
	if err := os.WriteFile(filepath.Join(h.dir, "release"), nil, 0o644); err != nil {
		h.t.Fatal(err)
	}
}

// grant lets exactly n parked blocking trials finish: each claims (deletes)
// one token file.
func (h *harness) grant(n int) {
	for i := 0; i < n; i++ {
		f, err := os.CreateTemp(h.dir, "token-*")
		if err != nil {
			h.t.Fatal(err)
		}
		f.Close()
	}
}

func (h *harness) count(kind string) int64 {
	marks, err := filepath.Glob(filepath.Join(h.dir, kind+"-*"))
	if err != nil {
		h.t.Fatal(err)
	}
	return int64(len(marks))
}

// entries counts trial bodies entered; completions counts trial bodies that
// returned successfully.
func (h *harness) entries() int64     { return h.count("entry") }
func (h *harness) completions() int64 { return h.count("done") }

// awaitEntries and awaitCompletions block until n trial bodies have been
// entered or have returned successfully.
func (h *harness) awaitEntries(n int64)     { h.t.Helper(); h.await("entry", n) }
func (h *harness) awaitCompletions(n int64) { h.t.Helper(); h.await("done", n) }

func (h *harness) await(kind string, n int64) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.count(kind) < n {
		if time.Now().After(deadline) {
			h.t.Fatalf("only %d of %d trial %s marks arrived", h.count(kind), n, kind)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// gate is the trial bodies' side of a harness directory; empty outside a
// harness (an in-process reference run), where it marks nothing and never
// parks.
type gate string

func (g gate) mark(kind string) {
	if g == "" {
		return
	}
	if f, err := os.CreateTemp(string(g), kind+"-*"); err == nil {
		f.Close()
	}
}

// open reports whether a parked trial may finish: the harness released every
// trial, or this trial claimed one granted token (os.Remove succeeds for
// exactly one claimant).
func (g gate) open() bool {
	if g == "" {
		return true
	}
	if _, err := os.Stat(filepath.Join(string(g), "release")); err == nil {
		return true
	}
	tokens, _ := filepath.Glob(filepath.Join(string(g), "token-*"))
	for _, tok := range tokens {
		if os.Remove(tok) == nil {
			return true
		}
	}
	return false
}

// testBuild is the worker's BuildFunc: spec.Runs trials (default 3), keyed
// on the spec name, each returning a value derived from the trial seed only
// — deterministic no matter which worker incarnation executes it. Name
// prefixes select behavior: "block-" parks each trial on the harness gate,
// "poison-" kills the process inside the first trial body (before anything
// journals — the no-progress crash loop), "slow-" paces each trial at ~60ms
// so chaos kills and cancels land mid-campaign.
func testBuild(spec *campaigns.Spec) (*sweep.Campaign, error) {
	n := spec.Runs
	if n <= 0 {
		n = 3
	}
	g := gate(os.Getenv(gateEnv))
	blocking := strings.HasPrefix(spec.Name, "block-")
	poison := strings.HasPrefix(spec.Name, "poison-")
	slow := strings.HasPrefix(spec.Name, "slow-")
	c := &sweep.Campaign{Name: spec.Name, Seed: spec.Seed}
	for i := 0; i < n; i++ {
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("%s/t%03d", spec.Name, i),
			Spec: map[string]int{"i": i},
			Run: func(t *sweep.T) (any, error) {
				if poison {
					os.Exit(3)
				}
				g.mark("entry")
				if slow {
					time.Sleep(60 * time.Millisecond)
				}
				for blocking && !g.open() {
					if t.Canceled() {
						return nil, sweep.ErrTrialCanceled
					}
					time.Sleep(2 * time.Millisecond)
				}
				g.mark("done")
				return map[string]int64{"seed": t.Seed}, nil
			},
		})
	}
	return c, nil
}

// daemonTrials counts trial bodies run by the test process acting as the
// daemon. Nothing may ever increment it: trial code runs only in workers.
var daemonTrials atomic.Int64

// daemonBuild is the daemons' Options.Build: testBuild's enumeration (keys
// and trial total) with every trial body replaced by a tripwire.
func daemonBuild(spec *campaigns.Spec) (*sweep.Campaign, error) {
	c, err := testBuild(spec)
	if err != nil {
		return nil, err
	}
	for i := range c.Trials {
		c.Trials[i].Run = func(*sweep.T) (any, error) {
			daemonTrials.Add(1)
			return nil, errors.New("trial body ran inside the daemon")
		}
	}
	return c, nil
}

// awaitJournaled blocks until the journals under a daemon store hold n
// complete lines. It reads without the journal's lock, so it can watch a
// campaign a worker is still running.
func awaitJournaled(t *testing.T, store string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		paths, err := filepath.Glob(filepath.Join(store, "cache", "*.journal"))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, p := range paths {
			blob, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(blob, []byte("\n"))
		}
		if lines >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d trials journaled", lines, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// journalEntries counts the trials journaled for the campaign (name, seed)
// under a daemon store: the durable record from which zero re-execution is
// asserted — a trial journaled twice would be counted twice.
func journalEntries(t *testing.T, store, name string, seed int64) int {
	t.Helper()
	n, err := sweep.ProbeJournal(filepath.Join(store, "cache"), "", name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// specJSON builds a minimal spec body for the harness.
func specJSON(name string, seed int64, runs int) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"seed":%d,"runs":%d}`, name, seed, runs))
}

// testDaemon is one daemon incarnation under test: a Server, its HTTP
// front-end, and a client pointed at it.
type testDaemon struct {
	srv  *simd.Server
	http *httptest.Server
}

// startDaemon starts an incarnation; a nil opts.Build selects daemonBuild.
func startDaemon(t *testing.T, opts simd.Options) *testDaemon {
	t.Helper()
	if opts.Build == nil {
		opts.Build = daemonBuild
	}
	srv, err := simd.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	srv.Start()
	return &testDaemon{srv: srv, http: hs}
}

func (d *testDaemon) client(id string) *simd.Client {
	return &simd.Client{
		BaseURL:      d.http.URL,
		ClientID:     id,
		BaseDelay:    time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	}
}

// stop tears the incarnation down gracefully.
func (d *testDaemon) stop() {
	d.http.Close()
	d.srv.Drain()
}

// kill simulates a SIGKILL: the HTTP listener vanishes and the Server stops
// with no persistence courtesy.
func (d *testDaemon) kill() {
	d.http.Close()
	d.srv.Kill()
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestSubmitAwaitResults covers the happy path plus content-addressed
// dedupe: two submissions of the same spec (one after completion) converge
// on one campaign and one execution.
func TestSubmitAwaitResults(t *testing.T) {
	h := newHarness(t)
	store := t.TempDir()
	d := startDaemon(t, simd.Options{Store: store, Worker: h.worker()})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("alice")

	spec := specJSON("fast-a", 7, 4)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Deduped {
		t.Fatalf("first submit: %+v", st)
	}
	if st, err = c.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("await: %+v, %v", st, err)
	}
	if st.Executed != 4 || st.Failed != 0 {
		t.Fatalf("want 4 executed: %+v", st)
	}

	// Identical resubmission — and a reformatted one — both dedupe.
	again, err := c.Submit(ctx, spec)
	if err != nil || !again.Deduped || again.ID != st.ID {
		t.Fatalf("resubmit: %+v, %v", again, err)
	}
	reformatted := []byte(`{ "runs": 4, "seed": 7, "name": "fast-a" }`)
	again, err = c.Submit(ctx, reformatted)
	if err != nil || !again.Deduped || again.ID != st.ID {
		t.Fatalf("reformatted resubmit: %+v, %v", again, err)
	}
	if n := h.completions(); n != 4 {
		t.Fatalf("trials executed %d times, want 4", n)
	}
	if n := journalEntries(t, store, "fast-a", 7); n != 4 {
		t.Fatalf("journal holds %d entries, want 4", n)
	}

	blob, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var results []json.RawMessage
	if err := json.Unmarshal(blob, &results); err != nil || len(results) != 4 {
		t.Fatalf("results: %d entries, %v", len(results), err)
	}
}

// TestConcurrentSubmitCancelDrain hammers one daemon from many goroutines —
// submitters, resubmitters, cancelers, stats readers — then drains it while
// requests are still arriving. Run under -race this is the server's data-
// race certificate; the assertions check the books still balance.
func TestConcurrentSubmitCancelDrain(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		MaxQueue: 128, MaxPerClient: 64, Concurrency: 2,
		DrainGrace: 2 * time.Second,
	})
	ctx := testCtx(t)

	const clients, per = 8, 6
	var wg sync.WaitGroup
	var submitted, rejected atomic.Int64
	ids := make(chan string, clients*per)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := d.client(fmt.Sprintf("c%d", ci))
			for i := 0; i < per; i++ {
				st, err := c.Submit(ctx, specJSON(fmt.Sprintf("fast-%d-%d", ci, i), int64(i), 2))
				if err != nil {
					rejected.Add(1)
					continue
				}
				submitted.Add(1)
				ids <- st.ID
				if i%3 == 0 {
					c.Cancel(ctx, st.ID) // races with execution on purpose
				}
				if i%2 == 0 {
					c.Stats(ctx)
				}
			}
		}(ci)
	}
	wg.Wait()
	close(ids)

	// Let the queue settle, then await every accepted campaign.
	c := d.client("awaiter")
	for id := range ids {
		st, err := c.Await(ctx, id)
		if err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
		switch st.State {
		case simd.StateDone, simd.StateCanceled:
		default:
			t.Fatalf("campaign %s settled as %+v", id, st)
		}
	}
	d.stop()

	stats := d.srv.Stats()
	if got := int64(stats.Campaigns[simd.StateDone] + stats.Campaigns[simd.StateCanceled]); got != submitted.Load() {
		t.Fatalf("settled %d campaigns, submitted %d (stats %+v)", got, submitted.Load(), stats)
	}
}

// TestBackpressure fills a tiny queue with blocking campaigns and asserts
// over-limit submissions are refused with the typed reasons and counted in
// telemetry — and that a rejected client gets through after the flood
// clears.
func TestBackpressure(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		MaxQueue: 3, MaxPerClient: 2,
	})
	defer d.stop()
	ctx := testCtx(t)

	// One blocking campaign occupies the dispatcher; the queue holds what
	// follows.
	runner := d.client("runner")
	first, err := runner.Submit(ctx, specJSON("block-hold", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	flooder := d.client("flooder")
	flooder.MaxAttempts = 1
	var queueFull, backlog int
	for i := 0; i < 6; i++ {
		_, err := flooder.Submit(ctx, specJSON(fmt.Sprintf("fast-f%d", i), 1, 1))
		switch {
		case err == nil:
		case strings.Contains(err.Error(), simd.ReasonClientBacklog):
			backlog++
		case strings.Contains(err.Error(), simd.ReasonQueueFull):
			queueFull++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if backlog == 0 {
		t.Fatalf("flooder was never refused for client backlog (queue_full=%d)", queueFull)
	}
	stats := d.srv.Stats()
	if stats.Rejected.Total() == 0 || stats.Rejected.ClientBacklog == 0 {
		t.Fatalf("rejections not accounted: %+v", stats.Rejected)
	}

	// Release the flood; the rejected client retries and succeeds.
	h.release()
	if _, err := runner.Await(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	late := d.client("flooder")
	st, err := late.Submit(ctx, specJSON("fast-late", 1, 1))
	if err != nil {
		t.Fatalf("post-flood submit: %v", err)
	}
	if st, err = late.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("post-flood await: %+v, %v", st, err)
	}
}

// TestFairness proves a flooding client cannot starve another: with client A
// holding a multi-campaign backlog, client B's single late submission is
// dispatched after at most one more of A's campaigns (round-robin), not
// after A's whole backlog.
func TestFairness(t *testing.T) {
	h := newHarness(t)
	var order []string
	var mu sync.Mutex
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		MaxQueue: 16, MaxPerClient: 8,
		Observe: func(id, state string) {
			if state == simd.StateRunning {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		},
	})
	defer d.stop()
	ctx := testCtx(t)

	// A's first campaign blocks the dispatcher while the rest of the test
	// arranges the queue, so dispatch order is decided strictly by the
	// round-robin, not by submission timing.
	a := d.client("a")
	hold, err := a.Submit(ctx, specJSON("block-a0", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(1) // a0 is on the dispatcher before anything else queues
	var aIDs []string
	for i := 1; i <= 4; i++ {
		st, err := a.Submit(ctx, specJSON(fmt.Sprintf("fast-a%d", i), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		aIDs = append(aIDs, st.ID)
	}
	b := d.client("b")
	bSt, err := b.Submit(ctx, specJSON("fast-b0", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	h.release()
	for _, id := range append(append([]string{hold.ID}, aIDs...), bSt.ID) {
		if _, err := d.client("awaiter").Await(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	bPos := -1
	for i, id := range order {
		if id == bSt.ID {
			bPos = i
		}
	}
	// Dispatch order: a0 (running before b existed), then round-robin must
	// reach b no later than position 2 overall.
	if bPos < 0 || bPos > 2 {
		t.Fatalf("client b dispatched at position %d of %v — starved by a's backlog", bPos, order)
	}
}

// TestSlowClients runs submissions whose response bodies are read through
// deterministic slow readers — slow consumers must neither fail nor wedge
// the daemon for others.
func TestSlowClients(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		MaxQueue: 64, MaxPerClient: 16,
	})
	defer d.stop()
	ctx := testCtx(t)

	plan := chaos.Plan{Seed: 99}
	tally := chaos.Flood(8, func(i int) error {
		c := d.client(fmt.Sprintf("slow-%d", i))
		c.WrapBody = func(r io.Reader) io.Reader {
			return &chaos.SlowReader{
				R:     r,
				Chunk: 1 + plan.Int("chunk", i, 0, 7),
				Delay: plan.Delay("delay", i, 100*time.Microsecond, time.Millisecond),
			}
		}
		st, err := c.Submit(ctx, specJSON(fmt.Sprintf("fast-slow%d", i), int64(i), 2))
		if err != nil {
			return err
		}
		if st, err = c.Await(ctx, st.ID); err != nil {
			return err
		}
		if st.State != simd.StateDone {
			return fmt.Errorf("campaign %s settled as %s", st.ID, st.State)
		}
		return nil
	})
	if tally.Failed != 0 {
		t.Fatalf("slow clients failed: %+v", tally)
	}
}

// TestKillResume is the crash-tolerance contract end to end: a daemon is
// killed with a campaign mid-flight in its worker, a successor on the same
// store resumes it, no trial executes twice, and the artifacts byte-match a
// never-crashed run of the same spec.
func TestKillResume(t *testing.T) {
	store := t.TempDir()
	spec := specJSON("block-big", 42, 6)
	ctx := testCtx(t)

	h1 := newHarness(t)
	d1 := startDaemon(t, simd.Options{Store: store, Worker: h1.worker()})
	st, err := d1.client("k").Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// Let exactly two of the six trials finish and land in the journal, then
	// kill the daemon mid-campaign. A trial whose body has returned but whose
	// result the worker has not yet journaled would be discarded by the
	// kill's cancellation, so the wait is on the journal, not the bodies.
	h1.grant(2)
	h1.awaitCompletions(2)
	awaitJournaled(t, store, 2)
	d1.kill()
	ran1 := h1.completions()
	if ran1 != 2 {
		t.Fatalf("%d trials completed before the kill, want 2", ran1)
	}

	// Successor on the same store: the campaign must be resumed, finish the
	// balance, and in total each of the 6 trials completes exactly once
	// across both incarnations.
	h2 := newHarness(t)
	h2.release()
	d2 := startDaemon(t, simd.Options{Store: store, Worker: h2.worker()})
	defer d2.stop()
	if got := d2.srv.Stats().Resumed; got != 1 {
		t.Fatalf("successor resumed %d campaigns, want 1", got)
	}
	fin, err := d2.client("k").Await(ctx, id)
	if err != nil || fin.State != simd.StateDone {
		t.Fatalf("resumed campaign: %+v, %v", fin, err)
	}
	ran2 := h2.completions()
	if ran1+ran2 != 6 {
		t.Fatalf("%d + %d trial completions across incarnations, want exactly 6", ran1, ran2)
	}
	if fin.Executed != int(ran2) || fin.Cached != int(ran1) {
		t.Fatalf("resumed status %+v does not account executions %d/%d", fin, ran1, ran2)
	}
	if n := journalEntries(t, store, "block-big", 42); n != 6 {
		t.Fatalf("journal holds %d entries, want 6 — a recount means a trial re-executed", n)
	}

	// Byte-identity: a never-crashed daemon on a fresh store produces the
	// same results.json.
	got, err := d2.client("k").Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	h3 := newHarness(t)
	h3.release()
	d3 := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h3.worker()})
	defer d3.stop()
	st3, err := d3.client("k").Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d3.client("k").Await(ctx, st3.ID); err != nil {
		t.Fatal(err)
	}
	want, err := d3.client("k").Results(ctx, st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from clean run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestDrainRequeue covers the graceful path: a drain with a blocking
// campaign in flight journals it as interrupted, and the next incarnation
// requeues and finishes it.
func TestDrainRequeue(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	h1 := newHarness(t)
	d1 := startDaemon(t, simd.Options{
		Store: store, Worker: h1.worker(),
		DrainGrace: 20 * time.Millisecond,
	})
	st, err := d1.client("d").Submit(ctx, specJSON("block-drain", 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the campaign to be running (its trials parked), then drain
	// without ever releasing: the grace expires and the campaign is
	// interrupted, not finished.
	h1.awaitEntries(1)
	d1.stop()
	h2 := newHarness(t)
	h2.release()
	after, err := simd.NewServer(simd.Options{Store: store, Build: daemonBuild, Worker: h2.worker()})
	if err != nil {
		t.Fatal(err)
	}
	// The drained campaign must come back queued, not lost and not done.
	if got := after.Stats().Resumed; got != 1 {
		t.Fatalf("post-drain incarnation resumed %d, want 1", got)
	}
	after.Start()
	hs := httptest.NewServer(after.Handler())
	defer hs.Close()
	defer after.Drain()
	c := &simd.Client{BaseURL: hs.URL, PollInterval: 5 * time.Millisecond}
	fin, err := c.Await(ctx, st.ID)
	if err != nil || fin.State != simd.StateDone {
		t.Fatalf("after drain+restart: %+v, %v", fin, err)
	}
}

// TestDrainRejectsSubmissions asserts the draining daemon refuses new work
// with the typed reason.
func TestDrainRejectsSubmissions(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker()})
	d.srv.Drain()
	defer d.http.Close()
	c := d.client("late")
	c.MaxAttempts = 1
	_, err := c.Submit(testCtx(t), specJSON("fast-late", 1, 1))
	if err == nil || !strings.Contains(err.Error(), simd.ReasonDraining) {
		t.Fatalf("submit to draining daemon: %v", err)
	}
}

// TestNewServerRequiresWorker: every campaign runs in a supervised worker,
// so a Server without a worker command is refused rather than built with no
// way to execute anything.
func TestNewServerRequiresWorker(t *testing.T) {
	srv, err := simd.NewServer(simd.Options{Store: t.TempDir(), Build: daemonBuild})
	if err == nil {
		srv.Kill()
		t.Fatal("NewServer accepted Options without Worker.Cmd")
	}
	if !strings.Contains(err.Error(), "Worker.Cmd") {
		t.Fatalf("NewServer error %q does not name Worker.Cmd", err)
	}
}

// TestClientBackoffDeterministic pins the client's retry schedule: capped
// doubling, no jitter.
func TestClientBackoffDeterministic(t *testing.T) {
	c := &simd.Client{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := c.Backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Far attempts (shift overflow territory) stay capped.
	if got := c.Backoff(200); got != 2*time.Second {
		t.Fatalf("backoff(200) = %v", got)
	}
}

// TestRecoveryBypassesAdmissionBounds asserts a restarted daemon re-admits
// every unfinished campaign even when the persisted set exceeds the
// successor's queue or per-client bounds: recovered work was already
// admitted, so it must not be re-gated (and must not land permanently
// failed) on restart.
func TestRecoveryBypassesAdmissionBounds(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	// Incarnation 1, generous bounds: one blocking campaign occupies the
	// dispatcher while five more queue behind it for the same client.
	h1 := newHarness(t)
	d1 := startDaemon(t, simd.Options{
		Store: store, Worker: h1.worker(),
		MaxQueue: 16, MaxPerClient: 10, Concurrency: 1,
		DrainGrace: 20 * time.Millisecond,
	})
	c1 := d1.client("bulk")
	ids := make([]string, 0, 6)
	st, err := c1.Submit(ctx, specJSON("block-bulk", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, st.ID)
	h1.awaitEntries(1)
	for i := 0; i < 5; i++ {
		st, err := c1.Submit(ctx, specJSON(fmt.Sprintf("fast-bulk%d", i), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	d1.stop() // interrupts the running campaign, leaves five queued on disk

	// Incarnation 2, tight bounds: all six persisted campaigns exceed both
	// MaxQueue and MaxPerClient, yet every one must resume and finish.
	h2 := newHarness(t)
	h2.release()
	d2 := startDaemon(t, simd.Options{
		Store: store, Worker: h2.worker(),
		MaxQueue: 3, MaxPerClient: 2, Concurrency: 1,
	})
	defer d2.stop()
	if got := d2.srv.Stats().Resumed; got != int64(len(ids)) {
		t.Fatalf("successor resumed %d campaigns, want %d", got, len(ids))
	}
	for _, id := range ids {
		fin, err := d2.client("bulk").Await(ctx, id)
		if err != nil || fin.State != simd.StateDone {
			t.Fatalf("recovered campaign %s: %+v, %v", id, fin, err)
		}
	}
}

// TestRejectedSubmissionNotPersisted asserts a queue-rejected submission
// leaves nothing in the store: the client was told 429, so no later
// incarnation may resurrect and run the campaign behind its back.
func TestRejectedSubmissionNotPersisted(t *testing.T) {
	store := t.TempDir()
	ctx := testCtx(t)

	h1 := newHarness(t)
	d1 := startDaemon(t, simd.Options{
		Store: store, Worker: h1.worker(),
		MaxQueue: 1, MaxPerClient: 1, Concurrency: 1,
	})
	c1 := d1.client("full")
	held, err := c1.Submit(ctx, specJSON("block-held", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h1.awaitEntries(1) // on the dispatcher; the queue itself is empty

	queued, err := d1.client("other").Submit(ctx, specJSON("fast-fills", 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	rejSpec := specJSON("fast-rejected", 1, 1)
	rejID, _, err := simd.SpecID(rejSpec)
	if err != nil {
		t.Fatal(err)
	}
	flooder := d1.client("late")
	flooder.MaxAttempts = 1
	if _, err := flooder.Submit(ctx, rejSpec); err == nil ||
		!strings.Contains(err.Error(), simd.ReasonQueueFull) {
		t.Fatalf("over-limit submit: %v", err)
	}
	for _, id := range d1.srv.CampaignIDs() {
		if id == rejID {
			t.Fatal("rejected campaign still registered in memory")
		}
	}

	// Crash and restart: the rejected campaign must not come back.
	d1.kill()
	h2 := newHarness(t)
	h2.release()
	d2 := startDaemon(t, simd.Options{Store: store, Worker: h2.worker()})
	defer d2.stop()
	for _, id := range d2.srv.CampaignIDs() {
		if id == rejID {
			t.Fatal("rejected campaign resurrected by recovery")
		}
	}
	for _, id := range []string{held.ID, queued.ID} {
		if fin, err := d2.client("x").Await(ctx, id); err != nil || fin.State != simd.StateDone {
			t.Fatalf("admitted campaign %s after restart: %+v, %v", id, fin, err)
		}
	}
}

// TestBadSpecRejected asserts malformed specs get a typed 400, are not
// retried by the client, and leave nothing behind in the store.
func TestBadSpecRejected(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker()})
	defer d.stop()
	c := d.client("bad")
	start := time.Now()
	_, err := c.Submit(testCtx(t), []byte(`{"name": 42}`))
	if err == nil || !strings.Contains(err.Error(), simd.ReasonBadSpec) {
		t.Fatalf("bad spec: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("client retried a non-retryable rejection")
	}
	if ids := d.srv.CampaignIDs(); len(ids) != 0 {
		t.Fatalf("bad spec left campaigns behind: %v", ids)
	}
}
