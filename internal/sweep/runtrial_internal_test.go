package sweep

import (
	"context"
	"testing"
)

// TestShutdownKeepsFinishedTrial: a trial that returns a complete result
// while the campaign is shutting down is kept, not discarded and re-run on
// resume. The body cancels the campaign itself and then returns, so runTrial
// sees both the trial's result and ctx.Done() ready and must keep the result
// whichever it selects first.
func TestShutdownKeepsFinishedTrial(t *testing.T) {
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		trial := Trial{Key: "finished", Run: func(*T) (any, error) {
			cancel()
			return 1, nil
		}}
		res, _, status := runTrial(ctx, trial, 1, Options{})
		cancel()
		if status != statusDone || res.Err != "" || string(res.Payload) != "1" {
			t.Fatalf("run %d: status %d, result %+v; want a kept result", i, status, res)
		}
	}
}
