package sweep

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// CampaignStopping is what the first signal stops in a command that runs a
// campaign, for SignalContext's message.
const CampaignStopping = "canceling campaign, flushing partial artifacts"

// SignalContext derives a context that is canceled by the first SIGINT or
// SIGTERM, giving every CLI the same two-stage shutdown story:
//
//   - First signal: the returned context is canceled. RunContext stops
//     dispatching, cancels in-flight trials cooperatively and returns the
//     partial outcome with ErrInterrupted — the caller still gets to flush
//     partial artifacts and the campaign journal already holds every
//     finished trial, so a re-invocation resumes with zero re-executed
//     trials.
//   - Second signal: the process force-exits with status 130 (the
//     conventional 128+SIGINT). This is the operator's escape hatch when a
//     trial ignores cooperative cancellation and the grace drain is too
//     slow for them.
//
// msg, when non-nil, receives one line per stage so the operator can tell a
// graceful drain from a wedged one; the first names what the signal stops,
// stopping (CampaignStopping for a command that runs a campaign). stop
// releases the signal registration and the watcher goroutine; call it once
// the campaign has returned.
func SignalContext(parent context.Context, msg io.Writer, stopping string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sigs:
			if msg != nil {
				fmt.Fprintf(msg, "received %v: %s (signal again to force-exit)\n", s, stopping)
			}
			cancel()
		case <-done:
			return
		case <-ctx.Done():
		}
		select {
		case s := <-sigs:
			if msg != nil {
				fmt.Fprintf(msg, "received %v again: force exit\n", s)
			}
			os.Exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sigs)
			close(done)
		})
		cancel()
	}
	return ctx, stop
}
