// Package runner is the shared entry point of the report-writing commands
// (faultexp, fwq, lwkctl, mkexp, noiseprofile, repro, simctl, sweep and
// tablegen). It owns what each of them used to repeat: the log prefix, the
// buffered stdout, the two-stage interrupt handler and the exit status.
//
// The exit-status contract:
//
//   - 0: run returned nil and stdout was flushed;
//   - 1: run returned an error, or a write to stdout failed (a full disk, a
//     closed pipe), so a truncated report never exits 0. The commands
//     return every error instead of exiting on the spot (no os.Exit or
//     log.Fatal*, as internal/lint/checks.TestTreeObeysRulesTable
//     enforces), so stdout is flushed before every exit 1;
//   - 2: a usage error, reported by the flag package before Main runs;
//   - 130: run returned an error after the first SIGINT/SIGTERM canceled
//     its context (the conventional 128+SIGINT). A second signal
//     force-exits with 130 at once (sweep.SignalContext).
//
// Work a command must do on interrupt — print a partial table, return
// reserved resources, mark an artifact partial — stays in its run, which
// then returns an error describing the interruption.
package runner

import (
	"bufio"
	"context"
	"io"
	"log"
	"os"

	"mkos/internal/sweep"
)

// Main runs the command called name and exits with its status. run gets a
// context canceled by the first SIGINT/SIGTERM and the buffered stdout,
// which Main flushes whether or not run fails. stopping names, for the
// operator's message on the first signal, what the signal stops (for
// example sweep.CampaignStopping).
func Main(ctx context.Context, name, stopping string, run func(ctx context.Context, out *bufio.Writer) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	os.Exit(exitCode(ctx, os.Stdout, stopping, run))
}

// exitCode runs run with stdout buffered and returns the exit status Main
// exits with. Every error is logged.
func exitCode(parent context.Context, stdout io.Writer, stopping string, run func(context.Context, *bufio.Writer) error) int {
	ctx, stop := sweep.SignalContext(parent, os.Stderr, stopping)
	defer stop()
	out := bufio.NewWriter(stdout)
	code := 0
	if err := run(ctx, out); err != nil {
		log.Print(err)
		code = 1
		if ctx.Err() != nil {
			code = 130
		}
	}
	if err := out.Flush(); err != nil {
		log.Print(err)
		if code == 0 {
			code = 1
		}
	}
	return code
}
