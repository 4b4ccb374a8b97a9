package simd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
	"mkos/internal/simd/worker"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// TestMain doubles this test binary as the daemon's worker process: when the
// supervisor re-execs it with SIMD_TEST_WORKER=1 it runs the real worker
// protocol (worker.Main) with testBuild's synthetic trial bodies, so every
// test that starts a Server exercises the entire daemon → supervisor → child
// → journal → store pipeline with nothing mocked.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		code := worker.Main(os.Stdin, os.Stdout, os.Stderr, testBuild)
		if ms, _ := strconv.Atoi(os.Getenv(lingerEnv)); ms > 0 {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestWorkerMatchesSweepReference: a campaign served by the daemon produces
// results.json and metrics.txt byte-identical to sweep.RunContext over the
// same build, rendered the way cmd/sweep renders them — and not one trial
// body executes inside the daemon.
func TestWorkerMatchesSweepReference(t *testing.T) {
	ctx := testCtx(t)
	h := newHarness(t)
	store := t.TempDir()
	d := startDaemon(t, simd.Options{Store: store, Worker: h.worker()})
	defer d.stop()
	cl := d.client("iso")

	spec := specJSON("wmode", 5, 4)
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateDone || st.Executed != 4 || st.Cached != 0 {
		t.Fatalf("campaign = %+v, want done with 4 executed", st)
	}
	if st.Restarts != 0 || st.Breaker == "open" {
		t.Fatalf("undisturbed campaign reports restarts=%d breaker=%q", st.Restarts, st.Breaker)
	}
	if n := daemonTrials.Load(); n != 0 {
		t.Fatalf("%d trial bodies ran inside the daemon; campaigns must execute out of process", n)
	}
	wres, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wmetrics, err := os.ReadFile(filepath.Join(store, "campaigns", st.ID, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// The reference: the same build run in this process with no cache, its
	// artifacts rendered as cmd/sweep renders a complete run.
	parsed, err := campaigns.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	built, err := testBuild(parsed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sweep.RunContext(ctx, built, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := json.MarshalIndent(o.Results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	pres = append(pres, '\n')
	var pmetrics bytes.Buffer
	if _, err := o.Registry.WriteTo(&pmetrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wres, pres) {
		t.Fatalf("daemon results (%d bytes) differ from the sweep reference (%d bytes)", len(wres), len(pres))
	}
	if !bytes.Equal(wmetrics, pmetrics.Bytes()) {
		t.Fatalf("daemon metrics.txt differs from the sweep reference:\n--- daemon ---\n%s\n--- reference ---\n%s", wmetrics, pmetrics.Bytes())
	}
}

// TestWorkerKilledTwiceResumes is the acceptance scenario: the chaos
// WorkerKiller SIGKILLs the campaign's worker twice mid-run; the supervisor
// restarts it each time, the journal carries the finished trials across, the
// campaign completes with zero re-executed trials and its artifacts are
// byte-identical to an unharassed run.
func TestWorkerKilledTwiceResumes(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	killer := &chaos.WorkerKiller{
		Plan:  chaos.NewPlan(7),
		Kills: 2,
		Min:   80 * time.Millisecond,
		Max:   150 * time.Millisecond,
	}
	h := newHarness(t)
	wo := h.worker()
	wo.SpawnHook = func(campaign string, attempt, pid int) { killer.Arm(pid) }
	d := startDaemon(t, simd.Options{Store: store, Worker: wo})
	defer d.stop()
	cl := d.client("chaos")

	st, err := cl.Submit(ctx, specJSON("slow-prey", 9, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateDone {
		t.Fatalf("harassed campaign = %+v, want done", st)
	}
	if st.Restarts != 2 {
		t.Fatalf("restarts=%d, want 2 (both kills landed: %d)", st.Restarts, killer.Killed())
	}
	if st.LastExit != "signal: killed" {
		t.Fatalf("last_exit=%q, want \"signal: killed\"", st.LastExit)
	}
	// The merge accounts for every trial exactly once across incarnations.
	if st.Executed+st.Cached != 8 || st.Failed != 0 {
		t.Fatalf("executed=%d cached=%d failed=%d, want executed+cached=8", st.Executed, st.Cached, st.Failed)
	}
	// Zero re-execution, asserted at the journal: one line per trial, none
	// appended twice.
	if n, jerr := sweep.ProbeJournal(filepath.Join(store, "cache"), "", "slow-prey", 9); jerr != nil || n != 8 {
		t.Fatalf("journal probe = (%d, %v), want (8, nil) — a recount means a trial re-executed", n, jerr)
	}
	killed, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The unharassed reference in a fresh store.
	h2 := newHarness(t)
	d2 := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h2.worker()})
	defer d2.stop()
	cl2 := d2.client("calm")
	st2, err := cl2.Submit(ctx, specJSON("slow-prey", 9, 8))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = cl2.Await(ctx, st2.ID); err != nil || st2.State != simd.StateDone {
		t.Fatalf("reference campaign: %+v, %v", st2, err)
	}
	calm, err := cl2.Results(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(killed) != string(calm) {
		t.Fatalf("results differ: killed-twice run %d bytes, unharassed run %d bytes", len(killed), len(calm))
	}
}

// TestCrashLoopBreakerIsolates: a poison campaign whose worker dies on every
// incarnation without progress trips the breaker after K deaths and lands in
// the terminal crash_loop state — while a healthy campaign sharing the daemon
// completes untouched. Resubmitting the poison spec re-arms the breaker.
func TestCrashLoopBreakerIsolates(t *testing.T) {
	ctx := testCtx(t)
	h := newHarness(t)
	wo := h.worker()
	wo.CrashLoopK = 3
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Concurrency: 2, Worker: wo})
	defer d.stop()
	cl := d.client("ops")

	poison, err := cl.Submit(ctx, specJSON("poison-spec", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := cl.Submit(ctx, specJSON("slow-good", 2, 5))
	if err != nil {
		t.Fatal(err)
	}

	if healthy, err = cl.Await(ctx, healthy.ID); err != nil || healthy.State != simd.StateDone {
		t.Fatalf("healthy campaign beside a crash loop: %+v, %v", healthy, err)
	}
	if poison, err = cl.Await(ctx, poison.ID); err != nil {
		t.Fatal(err)
	}
	if poison.State != simd.StateCrashLoop {
		t.Fatalf("poison campaign state %q (err %q), want crash_loop", poison.State, poison.Err)
	}
	if poison.Restarts != 3 || poison.LastExit != "exit status 3" {
		t.Fatalf("poison restarts=%d last_exit=%q, want 3 / \"exit status 3\"", poison.Restarts, poison.LastExit)
	}
	if poison.Breaker != "open" {
		t.Fatalf("poison breaker=%q, want open", poison.Breaker)
	}
	if !strings.Contains(poison.Err, "crash loop") {
		t.Fatalf("poison err %q does not name the crash loop", poison.Err)
	}
	stats, _, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns["crash_loop"] != 1 || stats.Campaigns["done"] != 1 {
		t.Fatalf("stats.Campaigns = %v, want crash_loop:1 done:1", stats.Campaigns)
	}

	// Resubmission is the operator's re-arm: the campaign requeues (not
	// deduped-terminal), runs again, and trips again.
	again, err := cl.Submit(ctx, specJSON("poison-spec", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Terminal() {
		t.Fatalf("resubmitted poison campaign answered terminal %q; want requeued", again.State)
	}
	if again, err = cl.Await(ctx, again.ID); err != nil || again.State != simd.StateCrashLoop {
		t.Fatalf("re-armed poison campaign: %+v, %v", again, err)
	}
	if again.Restarts != 3 {
		t.Fatalf("re-armed run restarts=%d, want a fresh count of 3", again.Restarts)
	}
}

// TestWorkerJournalBusyPreflight: when another process (here: an in-process
// sweep.Run) holds the campaign's journal flock, the dispatcher's preflight
// fails the campaign with a typed journal error before any worker spawns —
// zero incarnations burned against the breaker — and once the holder exits, a
// resubmission resumes the campaign entirely from the holder's journal.
func TestWorkerJournalBusyPreflight(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: store, Worker: h.worker()})
	defer d.stop()
	cl := d.client("overlap")

	// The conflicting holder: the same campaign identity (name, seed, version,
	// cache dir) with the same trial identities, run in process and parked on
	// its first trial so it holds the journal flock.
	cache := filepath.Join(store, "cache")
	gate := make(chan struct{})
	entered := make(chan struct{})
	holder := &sweep.Campaign{Name: "busy-j", Seed: 3}
	for i := 0; i < 3; i++ {
		i := i
		holder.Trials = append(holder.Trials, sweep.Trial{
			Key:  fmt.Sprintf("busy-j/t%03d", i),
			Spec: map[string]int{"i": i},
			Run: func(tt *sweep.T) (any, error) {
				if i == 0 {
					close(entered)
					<-gate
				}
				return map[string]int64{"seed": tt.Seed}, nil
			},
		})
	}
	holderDone := make(chan error, 1)
	go func() {
		_, err := sweep.Run(holder, sweep.Options{Workers: 1, CacheDir: cache})
		holderDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("holder campaign never started")
	}

	st, err := cl.Submit(ctx, specJSON("busy-j", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != simd.StateFailed || !strings.Contains(st.Err, "journal") {
		t.Fatalf("campaign against a held journal = %+v, want failed with a journal error", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("preflight burned %d worker incarnations; the probe must catch the conflict first", st.Restarts)
	}

	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder campaign failed: %v", err)
	}

	// The holder journaled all three trials; the resubmitted campaign resumes
	// from them without executing anything.
	st2, err := cl.Submit(ctx, specJSON("busy-j", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Terminal() {
		t.Fatalf("resubmission answered terminal %q; want requeued", st2.State)
	}
	if st2, err = cl.Await(ctx, st2.ID); err != nil || st2.State != simd.StateDone {
		t.Fatalf("resubmitted campaign: %+v, %v", st2, err)
	}
	if st2.Executed != 0 || st2.Cached != 3 {
		t.Fatalf("resumed campaign executed=%d cached=%d, want 0/3 — every trial was in the holder's journal", st2.Executed, st2.Cached)
	}
}

// TestSubmitNoSpace: a full disk refuses the submission with a typed 507 that
// the client never retries.
func TestSubmitNoSpace(t *testing.T) {
	ctx := testCtx(t)
	h := newHarness(t)
	faults := &chaos.StoreFaults{NoSpaceAfter: 1}
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker(), StoreFault: faults.Fault})
	defer d.stop()
	cl := d.client("full")
	cl.MaxAttempts = 5

	_, err := cl.Submit(ctx, specJSON("doomed", 1, 3))
	if err == nil {
		t.Fatal("submission to a full disk succeeded")
	}
	if !strings.Contains(err.Error(), "507") || !strings.Contains(err.Error(), simd.ReasonNoSpace) {
		t.Fatalf("full-disk submit error %q, want a typed 507 %s", err, simd.ReasonNoSpace)
	}
	stats, _, serr := cl.Stats(ctx)
	if serr != nil {
		t.Fatal(serr)
	}
	// Exactly one rejection: the client recognized 507 as non-retryable.
	if stats.Rejected.NoSpace != 1 {
		t.Fatalf("rejected.no_space = %d, want 1 (a higher count means the client retried a full disk)", stats.Rejected.NoSpace)
	}
}

// TestSettleOnDoneReapedByDrainAndKill: a campaign settles on its worker's
// done event, while a worker slow to tear down is still alive, and Drain and
// Kill return only after every worker the daemon spawned has been reaped.
func TestSettleOnDoneReapedByDrainAndKill(t *testing.T) {
	for _, how := range []string{"drain", "kill"} {
		t.Run(how, func(t *testing.T) {
			ctx := testCtx(t)
			h := newHarness(t)
			var mu sync.Mutex
			var pids []int
			w := h.worker()
			w.Env = append(w.Env, lingerEnv+"=500")
			w.SpawnHook = func(_ string, _, pid int) {
				mu.Lock()
				pids = append(pids, pid)
				mu.Unlock()
			}
			d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: w})
			defer d.stop()
			cl := d.client("reap")
			st, err := cl.Submit(ctx, specJSON("reap-"+how, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			if st, err = cl.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
				t.Fatalf("campaign = %+v, %v; want done", st, err)
			}
			mu.Lock()
			spawned := append([]int(nil), pids...)
			mu.Unlock()
			if len(spawned) != 1 {
				t.Fatalf("spawned workers %v, want 1", spawned)
			}
			if !alive(spawned[0]) {
				t.Fatalf("worker %d exited before its campaign settled: the daemon waited for teardown", spawned[0])
			}
			if how == "drain" {
				d.stop()
			} else {
				d.kill()
			}
			for _, pid := range spawned {
				if alive(pid) {
					t.Fatalf("worker %d is still alive after %s", pid, how)
				}
			}
		})
	}
}

// alive reports whether pid names a process, a zombie not yet reaped
// included.
func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }
