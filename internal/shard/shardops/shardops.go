// Package shardops is the wall-clock side of the sharded runner: an
// implementation of shard.Observer that turns the runner's progress
// callbacks into operational metrics — window count, per-shard barrier wait,
// cross-shard traffic — on its own registry, exposed in Prometheus text
// format via internal/telemetry/ops.
//
// The split mirrors sweep's Outcome.Ops: internal/shard itself sits inside
// the determinism boundary (no host clock, no ops import — enforced by
// simlint's forbidden table), while everything measured
// here is inherently host-dependent. Barrier waits change with core count
// and load; cross-shard message counts change with the partition. None of
// it may leak into byte-compared artifacts, so none of it lives anywhere
// near the deterministic registries the runner folds.
package shardops

import (
	"io"
	"sort"
	"sync"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

// Recorder implements shard.Observer on a private ops registry. Callbacks
// arrive concurrently from the coordinator and every shard goroutine; the
// recorder serializes internally.
type Recorder struct {
	mu     sync.Mutex
	reg    *telemetry.Registry
	doneAt map[int]time.Time // shard -> instant it entered the current barrier
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{reg: telemetry.NewRegistry(), doneAt: make(map[int]time.Time)}
}

// Registry exposes the ops registry, e.g. to merge into a CLI's -ops-metrics
// output. Never fold it into a deterministic registry.
func (r *Recorder) Registry() *telemetry.Registry { return r.reg }

// WindowStart counts the window and settles the previous barrier: every
// shard that checked in since the last release has been waiting from its
// ShardDone instant until now.
func (r *Recorder) WindowStart(w int, until sim.Time) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg.Counter("shardops.windows").Inc()
	r.reg.Gauge("shardops.sim_horizon_seconds").SetMax(until.Seconds())
	h := r.reg.Histogram("shardops.barrier_wait_us", telemetry.ExpBuckets(1, 4, 12))
	shards := make([]int, 0, len(r.doneAt))
	for s := range r.doneAt {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		h.Observe(float64(now.Sub(r.doneAt[s])) / float64(time.Microsecond))
		delete(r.doneAt, s)
	}
}

// ShardDone stamps shard s's arrival at the barrier after window w.
func (r *Recorder) ShardDone(s, w int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.doneAt[s] = now
}

// Exchanged accumulates the barrier's message traffic.
func (r *Recorder) Exchanged(cross, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg.Counter("shardops.messages").Add(int64(n))
	r.reg.Counter("shardops.cross_messages").Add(int64(cross))
	r.reg.Counter("shardops.exchanges").Inc()
}

// WriteExposition renders the recorder's metrics in Prometheus text format.
func (r *Recorder) WriteExposition(w io.Writer) error {
	r.mu.Lock()
	snap := r.reg.Snapshot()
	r.mu.Unlock()
	return ops.WriteExposition(w, snap)
}
