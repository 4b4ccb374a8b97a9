package bsp

import (
	"bytes"
	"testing"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// timelineStepNoise is the reference step sampler: build each node's
// sorted Timeline, then bin every application core's interruptions into
// steps and keep the per-step maximum.
func timelineStepNoise(profile *noise.Profile, cores []int, nodes, steps int,
	init, stepBusy, horizon time.Duration, seed int64) []time.Duration {

	delays := make([]time.Duration, steps)
	base := sim.NewRand(seed)
	for n := 0; n < nodes; n++ {
		tl := profile.Timeline(horizon, base.Derive(int64(n)))
		for _, core := range cores {
			perStep := map[int]time.Duration{}
			for _, iv := range tl.ForCPU(core) {
				at := iv.Start.Duration() - init
				if at < 0 {
					continue
				}
				step := int(at / stepBusy)
				if step >= steps {
					break
				}
				perStep[step] += iv.Len
			}
			for s, d := range perStep {
				delays[s] = max(delays[s], d)
			}
		}
	}
	return delays
}

// TestSampleStepNoiseMatchesTimelineBinning pins the streaming sampler to
// the reference: identical per-step delays and an identical metrics dump,
// across targeting modes, Pareto tails, system cores outside the job,
// disabled sources, an init phase and repeated application cores, and at
// every worker count: one, counts that leave uneven node blocks (7 nodes
// over 2, 3 or 5 workers) and more workers than nodes.
func TestSampleStepNoiseMatchesTimelineBinning(t *testing.T) {
	p := &noise.Profile{Subsystem: "linux"}
	p.MustAdd(&noise.Source{Name: "tick", Cores: []int{2, 3, 4, 5}, Mode: noise.TargetAll,
		Every: 4 * time.Millisecond, Length: 3 * time.Microsecond, LengthCV: 0.2})
	p.MustAdd(&noise.Source{Name: "kworker", Cores: []int{0, 2, 3, 4, 5, 6}, Mode: noise.TargetRandom,
		Every: 7 * time.Millisecond, EveryCV: 1.2, Length: 40 * time.Microsecond, LengthCV: 0.8,
		TailProb: 0.05, TailFactor: 20})
	p.MustAdd(&noise.Source{Name: "irq", Cores: []int{3, 5, 9}, Mode: noise.TargetRoundRobin,
		Every: 11 * time.Millisecond, EveryCV: 0.3, Length: 15 * time.Microsecond})
	p.MustAdd(&noise.Source{Name: "daemon", Cores: []int{1}, Mode: noise.TargetOne,
		Every: 2 * time.Millisecond, Length: 100 * time.Microsecond})
	p.MustAdd(&noise.Source{Name: "off", Cores: []int{2}, Mode: noise.TargetOne,
		Every: time.Millisecond, Length: time.Microsecond, Disabled: true})
	p.MustAdd(&noise.Source{Name: "rare", Cores: []int{4}, Mode: noise.TargetOne,
		Every: time.Hour, Length: time.Millisecond})

	cases := []struct {
		name           string
		cores          []int
		nodes, steps   int
		init, stepBusy time.Duration
	}{
		{"app-cores", []int{2, 3, 4, 5}, 16, 40, 0, 5 * time.Millisecond},
		{"with-init", []int{2, 3, 4, 5}, 9, 25, 17 * time.Millisecond, 3 * time.Millisecond},
		{"repeated-and-sys", []int{5, 1, 5, 2}, 7, 60, time.Millisecond, 1700 * time.Microsecond},
		{"one-step", []int{4}, 33, 1, 0, 200 * time.Millisecond},
		{"one-node", []int{2, 3, 4, 5}, 1, 30, 2 * time.Millisecond, 4 * time.Millisecond},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2, 99} {
			horizon := tc.init + time.Duration(tc.steps)*tc.stepBusy
			// The oracle's Profile.Timeline calls publish into the
			// profile's sink.
			ref := telemetry.NewSink()
			p.Sink = ref
			want := timelineStepNoise(p, tc.cores, tc.nodes, tc.steps, tc.init, tc.stepBusy, horizon, seed)
			var wantDump bytes.Buffer
			ref.Registry().WriteTo(&wantDump)
			for _, workers := range []int{1, 2, 3, 5, tc.nodes + 1} {
				sink := telemetry.NewSink()
				got := sampleStepNoise(sink, p, tc.cores, tc.nodes, tc.steps, tc.init, tc.stepBusy, horizon, seed, workers)
				for s := range want {
					if got[s] != want[s] {
						t.Fatalf("%s seed %d workers %d step %d: streaming %v, timeline binning %v",
							tc.name, seed, workers, s, got[s], want[s])
					}
				}
				var gotDump bytes.Buffer
				sink.Registry().WriteTo(&gotDump)
				if gotDump.String() != wantDump.String() {
					t.Fatalf("%s seed %d workers %d: metrics differ\nstreaming:\n%s\ntimeline:\n%s",
						tc.name, seed, workers, gotDump.String(), wantDump.String())
				}
			}
		}
	}
}
