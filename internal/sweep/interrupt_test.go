package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mkos/internal/sim"
	"mkos/internal/sweep"
)

// TestInterruptResumeByteIdentical is the crash-safe resume contract end to
// end: a campaign canceled mid-run returns a partial outcome with
// ErrInterrupted, every trial that finished before the cancel is journaled,
// and re-invoking the same campaign against the same cache dir completes it
// with zero re-executions of finished trials — merging artifacts
// byte-identical to a run that was never interrupted.
func TestInterruptResumeByteIdentical(t *testing.T) {
	const n = 8
	build := func(execs []int, onTrial func(i int)) *sweep.Campaign {
		c := &sweep.Campaign{Name: "interrupt", Seed: 5}
		for i := 0; i < n; i++ {
			i := i
			c.Trials = append(c.Trials, sweep.Trial{
				Key:  fmt.Sprintf("int/n%03d", i),
				Spec: synthSpec{ID: i, Scale: 1.0},
				Run: func(tt *sweep.T) (any, error) {
					if execs != nil {
						execs[i]++
					}
					if onTrial != nil {
						onTrial(i)
					}
					return map[string]int64{"seed": tt.Seed, "id": int64(i)}, nil
				},
			})
		}
		return c
	}

	// Reference: the same campaign, never interrupted, at -j 1.
	refOut, err := sweep.Run(build(nil, nil), sweep.Options{Workers: 1, CacheDir: t.TempDir(), Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	ref := artifacts(t, refOut)

	// Interrupted run: trial 3 cancels the campaign context from inside its
	// own body, so with one worker the cancel provably lands mid-campaign.
	dir := t.TempDir()
	execs := make([]int, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := build(execs, func(i int) {
		if i == 3 {
			cancel()
		}
	})
	opts := sweep.Options{Workers: 1, CacheDir: dir, Version: "test-v1", CancelGrace: 5 * time.Second}
	o, err := sweep.RunContext(ctx, c, opts)
	if !errors.Is(err, sweep.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if !o.Partial || o.Canceled == 0 {
		t.Fatalf("partial=%v canceled=%d after mid-run cancel", o.Partial, o.Canceled)
	}
	if got := o.Ops.CounterValue("sweep.trials.canceled"); got != int64(o.Canceled) {
		t.Fatalf("ops canceled counter = %d, want %d", got, o.Canceled)
	}
	if len(o.Results)+o.Canceled != n {
		t.Fatalf("partial results %d + canceled %d != %d trials", len(o.Results), o.Canceled, n)
	}

	// Resume: the journal must restore every finished trial; only the
	// canceled remainder executes.
	journaled := len(o.Results)
	o2, err := sweep.Run(build(execs, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Partial {
		t.Fatal("resumed run still marked partial")
	}
	if o2.Cached != journaled || o2.Executed != n-journaled {
		t.Fatalf("resume executed=%d cached=%d, want %d/%d", o2.Executed, o2.Cached, n-journaled, journaled)
	}
	for i, r := range o.Results {
		// Each trial that finished before the cancel ran exactly once
		// across both invocations: zero re-execution on resume.
		var id int
		fmt.Sscanf(r.Key, "int/n%03d", &id)
		if execs[id] != 1 {
			t.Fatalf("finished trial %s executed %d times across interrupt+resume (result %d)", r.Key, execs[id], i)
		}
	}
	if got := artifacts(t, o2); !bytes.Equal(ref, got) {
		t.Fatalf("resumed artifacts differ from uninterrupted run:\n--- ref ---\n%.2000s\n--- resumed ---\n%.2000s", ref, got)
	}
}

// TestTrialTimeoutAbandonsHungTrial: a trial that ignores every cooperative
// signal is failed by TrialTimeout and its goroutine abandoned, while the
// rest of the pool keeps draining — the campaign completes.
func TestTrialTimeoutAbandonsHungTrial(t *testing.T) {
	hang := make(chan struct{}) // never closed: the trial is truly wedged
	t.Cleanup(func() { close(hang) })
	c := synthCampaign("hung", 6, 3)
	c.Trials[2].Run = func(*sweep.T) (any, error) {
		<-hang
		return nil, nil
	}
	o, err := sweep.Run(c, sweep.Options{
		Workers: 2, TrialTimeout: 100 * time.Millisecond, CancelGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 5 || o.Failed != 1 {
		t.Fatalf("executed=%d failed=%d, want 5/1", o.Executed, o.Failed)
	}
	if o.TimedOut != 1 || o.Leaked != 1 {
		t.Fatalf("timedout=%d leaked=%d, want 1/1", o.TimedOut, o.Leaked)
	}
	r, ok := o.Result("synth/n002")
	if !ok || !strings.Contains(r.Err, "timed out") || !strings.Contains(r.Err, "abandoned") {
		t.Fatalf("hung trial result = %+v", r)
	}
	if got := o.Ops.CounterValue("sweep.trials.leaked"); got != 1 {
		t.Fatalf("ops leaked counter = %d, want 1", got)
	}
	if got := o.Ops.CounterValue("sweep.trials.timed_out"); got != 1 {
		t.Fatalf("ops timed_out counter = %d, want 1", got)
	}
}

// TestTrialTimeoutCancelsAttachedEngine: a runaway simulation whose engine is
// attached to the trial unwinds cooperatively inside the grace window — the
// trial fails with the timeout but nothing leaks.
func TestTrialTimeoutCancelsAttachedEngine(t *testing.T) {
	c := &sweep.Campaign{Name: "runaway", Seed: 1}
	c.Trials = append(c.Trials, sweep.Trial{
		Key:  "runaway/spin",
		Spec: synthSpec{ID: 0, Scale: 1},
		Run: func(tt *sweep.T) (any, error) {
			e := sim.NewEngine()
			var spin func(*sim.Engine)
			spin = func(*sim.Engine) { e.Schedule(1, "spin", spin) }
			e.Schedule(0, "spin", spin)
			tt.AttachEngine(e)
			if err := e.Run(); err != nil {
				return nil, fmt.Errorf("simulation interrupted: %w", err)
			}
			return nil, nil
		},
	})
	o, err := sweep.Run(c, sweep.Options{
		Workers: 1, TrialTimeout: 100 * time.Millisecond, CancelGrace: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 || o.TimedOut != 1 || o.Leaked != 0 {
		t.Fatalf("failed=%d timedout=%d leaked=%d, want 1/1/0", o.Failed, o.TimedOut, o.Leaked)
	}
	r, _ := o.Result("runaway/spin")
	if !strings.Contains(r.Err, "timed out") || !strings.Contains(r.Err, sim.ErrCanceled.Error()) {
		t.Fatalf("runaway trial error = %q, want timeout wrapping the engine cancel", r.Err)
	}
}

// TestPanicCapturesStack: a panicking trial's error embeds a (bounded)
// goroutine stack, so a CI failure is debuggable from results.json alone.
func TestPanicCapturesStack(t *testing.T) {
	c := synthCampaign("stack", 2, 1)
	c.Trials[0].Run = func(*sweep.T) (any, error) { return explodeForStackTest() }
	o, err := sweep.Run(c, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := o.Result("synth/n000")
	if !ok || r.Err == "" {
		t.Fatalf("panicking trial result = %+v", r)
	}
	if !strings.Contains(r.Err, "panic: boom") {
		t.Fatalf("error lost the panic value: %q", r.Err)
	}
	if !strings.Contains(r.Err, "goroutine") || !strings.Contains(r.Err, "explodeForStackTest") {
		t.Fatalf("error lost the stack trace: %q", r.Err)
	}
	if len(r.Err) > 8192 {
		t.Fatalf("panic error unbounded: %d bytes", len(r.Err))
	}
}

//go:noinline
func explodeForStackTest() (any, error) { panic("boom") }

// TestSignalContextCancelsOnFirstSignal: the CLI shutdown helper converts the
// first SIGINT into a context cancellation (stage one of the two-stage
// shutdown; stage two is os.Exit and untestable in-process).
func TestSignalContextCancelsOnFirstSignal(t *testing.T) {
	var msg bytes.Buffer
	ctx, stop := sweep.SignalContext(context.Background(), &msg, sweep.CampaignStopping)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled by SIGINT")
	}
	if !strings.Contains(msg.String(), "canceling campaign") {
		t.Fatalf("operator message missing: %q", msg.String())
	}
}

// TestCanceledTrialObservesFlag: a cooperative trial sees T.Canceled() flip
// when the campaign context is canceled, and its discarded execution re-runs
// on the next invocation.
func TestCanceledTrialObservesFlag(t *testing.T) {
	var observed atomic.Bool
	started := make(chan struct{})
	c := &sweep.Campaign{Name: "coop", Seed: 2}
	c.Trials = append(c.Trials, sweep.Trial{
		Key:  "coop/only",
		Spec: synthSpec{ID: 0, Scale: 1},
		Run: func(tt *sweep.T) (any, error) {
			close(started)
			for !tt.Canceled() {
				time.Sleep(time.Millisecond)
			}
			observed.Store(true)
			return nil, sweep.ErrTrialCanceled
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	o, err := sweep.RunContext(ctx, c, sweep.Options{Workers: 1, CancelGrace: 5 * time.Second})
	if !errors.Is(err, sweep.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !observed.Load() {
		t.Fatal("trial never observed its cancel flag")
	}
	if o.Canceled != 1 || o.Leaked != 0 || len(o.Results) != 0 {
		t.Fatalf("canceled=%d leaked=%d results=%d, want 1/0/0", o.Canceled, o.Leaked, len(o.Results))
	}
}
