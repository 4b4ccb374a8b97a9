package simd

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"mkos/internal/sweep"
)

// newRaceServer starts a Server whose campaigns run in a re-exec of this test
// binary: TestMain (worker_integration_test.go, same binary) turns it into a
// worker when SIMD_TEST_WORKER=1. The "slow-" campaigns the race tests submit
// pace each trial at ~60ms on one sweep worker, so a lost cancel lets the
// campaign run to completion and settle Done — a state the assertions catch
// — rather than hang. Under -race the worker skips the race runtime's
// default 1s sleep at exit, which the supervisor would otherwise wait out.
func newRaceServer(t *testing.T) *Server {
	t.Helper()
	race := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	s, err := NewServer(Options{
		Store:   t.TempDir(),
		Workers: 1,
		Worker: WorkerOptions{
			Cmd: []string{os.Args[0]},
			Env: append(os.Environ(), "SIMD_TEST_WORKER=1", "GORACE="+race),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// raceCampaign is an admitted campaign as a dispatcher holds it right after
// the pop: enumerated (20 trials), queued, not yet running.
func raceCampaign(t *testing.T, name string) *campaign {
	t.Helper()
	spec := []byte(`{"name":"` + name + `","seed":1,"runs":20}`)
	id, _, err := SpecID(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &campaign{
		id: id, canon: spec, built: &sweep.Campaign{Name: name, Seed: 1}, submitted: time.Now(),
		st: Status{ID: id, Client: name, State: StateQueued, Total: 20},
	}
}

// TestPreDispatchCancelTakesEffect reproduces the lost-cancel race: DELETE
// lands after a dispatcher popped the campaign but before runCampaign
// installed c.cancel. handleCancel then only sets cancelReq (returning 202);
// runCampaign must notice the flag when it installs the cancel func and
// cancel its own context, or the worker runs the campaign to completion and
// it settles Done despite the accepted cancel.
func TestPreDispatchCancelTakesEffect(t *testing.T) {
	s := newRaceServer(t)
	defer s.Kill()

	c := raceCampaign(t, "slow-race")
	// Leave the campaign exactly where the race does: popped from the queue,
	// cancel accepted (cancelReq set), cancel func not yet installed.
	c.cancelReq = true
	s.mu.Lock()
	s.camps[c.id] = c
	s.mu.Unlock()

	s.runCampaign(s.runCtx, c)

	s.mu.Lock()
	state := c.st.State
	s.mu.Unlock()
	if state != StateCanceled {
		t.Fatalf("pre-dispatch cancel settled campaign as %s, want %s", state, StateCanceled)
	}
}

// TestRunCampaignHonorsDispatcherContext pins the ctx-threading contract:
// runCampaign's cancellation scope is the context its dispatcher passes in,
// not a context reached through Server fields. A dispatcher context that is
// already dead must interrupt the worker (trials journaled, campaign left
// resumable) rather than let it run to completion and settle Done.
func TestRunCampaignHonorsDispatcherContext(t *testing.T) {
	s := newRaceServer(t)
	defer s.Kill()

	c := raceCampaign(t, "slow-ctxdead")
	s.mu.Lock()
	s.camps[c.id] = c
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.runCampaign(ctx, c)

	s.mu.Lock()
	state := c.st.State
	s.mu.Unlock()
	if state != StateInterrupted {
		t.Fatalf("dead dispatcher ctx settled campaign as %s, want %s", state, StateInterrupted)
	}
}
