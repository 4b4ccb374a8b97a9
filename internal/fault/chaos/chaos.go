// Package chaos is the service-level extension of the fault subsystem: where
// internal/fault injects failures *inside* the simulated machine, this
// package injects them *around* a live service process — the operational
// hazards a long-running campaign daemon on a shared pre-exascale front-end
// actually faces. Its injectors cover the paper's "experiences" at the
// service layer:
//
//   - worker-kill: WorkerKiller SIGKILLs the worker processes a daemon
//     supervises at planned instants after their spawn, the service
//     analogue of a node crash — no drain, no flush. (Killing the daemon
//     itself needs no injector: scripts/simd-chaos-check.sh does it with
//     a plain kill -9 and checks that the on-disk journal is all it needs.)
//   - store faults: StoreFaults subjects the daemon's store writes to
//     seeded short writes and a full disk.
//   - slow-client: SlowReader/SlowWriter trickle bytes through an io stream
//     in small planned chunks, modelling clients on congested or throttled
//     links that hold server connections open for seconds.
//   - queue-flood: Flood drives N concurrent client functions and tallies
//     their outcomes, modelling a burst of submissions that must be shaped
//     by admission control rather than by collapse.
//
// Like the simulator-side injectors, every schedule is derived from a seed
// (Plan), so a chaos run that exposes a bug is re-runnable: the same seed
// kills the same worker at the same offset and trickles the same chunk sizes.
// Unlike them, actuation here is host-side by nature (real sleeps, real
// signals), so this package lives outside the determinism contract enforced
// on model packages.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Plan derives reproducible chaos schedules from one seed. Each named draw
// hashes (seed, name, index), so schedules are independent of each other and
// of draw order — the same discipline sweep.DeriveSeed applies to trial
// seeds.
type Plan struct {
	Seed int64
}

// NewPlan returns a plan rooted at seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// draw returns a uniform value in [0,1) for (name, i).
func (p *Plan) draw(name string, i int) float64 {
	h := sha256.New()
	fmt.Fprintf(h, "chaos\x00%d\x00%s\x00%d", p.Seed, name, i)
	v := binary.BigEndian.Uint64(h.Sum(nil)[:8])
	return float64(v>>11) / float64(1<<53)
}

// Delay returns the i-th delay of the named schedule, uniform in [min, max].
// Use distinct names for distinct hazards ("kill", "restart-gap") so adding
// one schedule never shifts another.
func (p *Plan) Delay(name string, i int, min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(p.draw(name, i)*float64(max-min))
}

// Int returns the i-th integer of the named schedule, uniform in [min, max].
func (p *Plan) Int(name string, i, min, max int) int {
	if max <= min {
		return min
	}
	return min + int(p.draw(name, i)*float64(max-min+1))
}

// SlowReader trickles an underlying reader: every Read returns at most Chunk
// bytes and sleeps Delay first, so a 4 KiB response body at Chunk=64,
// Delay=10ms occupies its connection for ~640ms. Wrap a client's response
// body (or request body) with it to model a slow consumer without touching
// the server under test.
type SlowReader struct {
	R     io.Reader
	Chunk int
	Delay time.Duration
}

func (s *SlowReader) Read(p []byte) (int, error) {
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	if s.Chunk > 0 && len(p) > s.Chunk {
		p = p[:s.Chunk]
	}
	return s.R.Read(p)
}

// SlowWriter is the write-side twin: request bodies dribbled toward the
// server in Chunk-byte slices with Delay between them.
type SlowWriter struct {
	W     io.Writer
	Chunk int
	Delay time.Duration
}

func (s *SlowWriter) Write(p []byte) (int, error) {
	var n int
	for len(p) > 0 {
		if s.Delay > 0 {
			time.Sleep(s.Delay)
		}
		c := len(p)
		if s.Chunk > 0 && c > s.Chunk {
			c = s.Chunk
		}
		m, err := s.W.Write(p[:c])
		n += m
		if err != nil {
			return n, err
		}
		p = p[c:]
	}
	return n, nil
}

// Tally is Flood's aggregate outcome.
type Tally struct {
	// OK counts client functions that returned nil.
	OK int
	// Failed counts client functions that returned an error; Errs keeps the
	// first few in launch order for the failure message.
	Failed int
	Errs   []error
}

// maxTallyErrs bounds the errors a tally retains: enough to diagnose a
// flood, small enough to print.
const maxTallyErrs = 8

// Flood runs fn(i) for i in [0,n) on n concurrent goroutines — the
// queue-flood injector. It returns once every client function has returned;
// shaping the flood (backoff, retries, per-client identity) is the client
// function's job, which is exactly what the flood is meant to exercise.
func Flood(n int, fn func(i int) error) Tally {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- fn(i) }(i)
	}
	var t Tally
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Failed++
			if len(t.Errs) < maxTallyErrs {
				t.Errs = append(t.Errs, err)
			}
		} else {
			t.OK++
		}
	}
	return t
}
