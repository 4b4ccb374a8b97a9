// Package worker is simd's out-of-process trial execution layer: the daemon
// dispatches each campaign to a supervised child process (a re-exec of its
// own binary in a hidden worker mode) that runs the sweep orchestrator
// against the shared cache directory and exits. Process isolation is the
// paper's failure model applied to the service itself: a runaway trial's
// RSS, a wedged model loop or a panic that escapes recovery now kills one
// campaign's worker — never the daemon and never the other tenants.
//
// Correctness under worker death costs nothing new: every finished trial is
// already a durable cache entry indexed by the campaign's crash-safe journal
// (internal/sweep), so a SIGKILLed worker is indistinguishable from a
// SIGKILLed daemon — the supervisor restarts it, the cache restores every
// finished trial, zero trials re-execute and the merged artifacts are
// byte-identical to an uninterrupted run.
//
// The protocol is deliberately minimal: the supervisor writes one Request
// (JSON) to the worker's stdin and the worker answers newline-delimited JSON
// Events on stdout — hello (pid), hb (liveness), trial (one finished trial,
// in journal order) and done (terminal summary). Worker death is the absence
// of a done event: the pipe reaches EOF and the exit status names the cause.
// stderr is free-form and re-logged line by line through the daemon's
// structured logger.
//
// The Supervisor enforces the containment policy — heartbeat timeouts
// (pipe events plus journal mtime), an RSS ceiling polled from
// /proc/<pid>/statm, a per-campaign wall deadline, deterministic capped
// backoff between restarts, and a crash-loop circuit breaker that gives up
// on a spec after K consecutive worker deaths with no progress.
//
// The daemon settles a campaign on its done event, not on the worker's
// exit: the worker has written its artifacts before done, and the sweep
// journal's flock is released before the campaign returns, so nothing the
// daemon settles depends on the exit. The Supervisor collects the exit in
// the background (Supervisor.Wait joins it), and the daemon's Drain and
// Kill wait for every such collection, so no worker outlives the daemon.
package worker

import (
	"encoding/json"
	"time"

	"mkos/internal/telemetry"
)

// Request is the campaign assignment the supervisor writes to the worker's
// stdin, complete enough that the worker shares nothing with the daemon but
// the filesystem.
type Request struct {
	// Spec is the canonical campaign spec JSON (what the campaign id
	// hashes); the worker parses and builds it itself.
	Spec json.RawMessage `json:"spec"`
	// CacheDir is the shared sweep cache/journal directory.
	CacheDir string `json:"cache_dir"`
	// ArtifactDir, when non-empty, receives results.json and metrics.txt
	// (with sha256 sidecars) on success — written by the worker, atomically,
	// before the done event, so a daemon that sees "done" always finds the
	// artifacts behind it.
	ArtifactDir string `json:"artifact_dir,omitempty"`
	// Workers, TrialTimeoutMS and CancelGraceMS thread through to
	// sweep.Options.
	Workers        int   `json:"workers,omitempty"`
	TrialTimeoutMS int64 `json:"trial_timeout_ms,omitempty"`
	CancelGraceMS  int64 `json:"cancel_grace_ms,omitempty"`
	// Version pins the sweep cache/journal version ("" = CodeVersion()).
	Version string `json:"version,omitempty"`
	// HeartbeatMS paces the worker's liveness ticker; <= 0 means 250ms.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
}

// Event kinds flowing worker → supervisor.
const (
	EvHello = "hello" // first event: the worker is up; PID is set
	EvHB    = "hb"    // liveness beat (ticker + per-trial heartbeat hook)
	EvTrial = "trial" // one finished trial, in journal append order
	EvDone  = "done"  // terminal: State, Summary and Ops are set
)

// Worker terminal states carried by a done event.
const (
	StateDone        = "done"        // campaign ran to completion (failures included)
	StateInterrupted = "interrupted" // SIGTERM/cancel: journaled progress, resumable
	StateFailed      = "failed"      // campaign-level error (bad spec, store write, busy journal)
	// StateCrashLoop is produced by the Supervisor, never by a worker: K
	// consecutive worker deaths with no progress tripped the breaker.
	StateCrashLoop = "crash_loop"
)

// ReasonJournalBusy marks a failed done event whose cause was a held sweep
// journal flock (sweep.ErrJournalBusy) — transient, retryable by
// resubmission, and distinguished so the daemon can surface its typed 409.
const ReasonJournalBusy = "journal_busy"

// Event is one newline-delimited JSON message on the worker's stdout.
type Event struct {
	Ev string `json:"ev"`

	// PID rides the hello event.
	PID int `json:"pid,omitempty"`

	// Trial fields (EvTrial), mirroring sweep.TrialEvent.
	Key    string  `json:"key,omitempty"`
	Err    string  `json:"err,omitempty"` // trial error, or terminal error on EvDone
	Cached bool    `json:"cached,omitempty"`
	WallMS float64 `json:"wall_ms,omitempty"`
	Done   int     `json:"done,omitempty"`
	Total  int     `json:"total,omitempty"`

	// Done fields (EvDone).
	State   string              `json:"state,omitempty"`
	Reason  string              `json:"reason,omitempty"`
	Summary *Summary            `json:"summary,omitempty"`
	Ops     *telemetry.Snapshot `json:"ops,omitempty"`
}

// Summary is the done event's trial accounting, mirroring sweep.Outcome.
type Summary struct {
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled,omitempty"`
}

// Backoff returns the deterministic capped restart delay before attempt i
// (0-based): min(base·2ⁱ, max), no jitter — the one schedule behind the
// supervisor's restarts and the simd client's retries and polls, so a chaos
// run's restart cadence is exactly reproducible. base <= 0 means 50ms,
// max <= 0 means 2s.
func Backoff(i int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(i)
	if d <= 0 || d > max { // <= 0 guards shift overflow
		return max
	}
	return d
}
