package noise_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// refEvents is the per-event sampler the batched kernel replaced, kept as
// the reference: it draws one event at a time (length, then core pick,
// then interval) and stops drawing at the horizon. It appends the
// source's interruptions over [0, horizon) to out in start order.
func refEvents(out []noise.Interruption, s *noise.Source, horizon time.Duration, rng *sim.Rand) []noise.Interruption {
	if s.Disabled {
		return out
	}
	alpha := s.TailAlpha
	if alpha <= 0 {
		alpha = 1.8
	}
	interval := sim.NewLogNormalDist(float64(s.Every), s.EveryCV)
	length := sim.NewLogNormalDist(float64(s.Length), s.LengthCV)
	sampleLength := func() time.Duration {
		if s.TailProb > 0 && rng.Bernoulli(s.TailProb) {
			return time.Duration(rng.Pareto(float64(s.Length)*s.TailFactor, alpha))
		}
		if s.LengthCV <= 0 {
			return s.Length
		}
		return max(time.Duration(math.Exp(length.Exponent(rng))), time.Nanosecond)
	}
	sampleInterval := func() time.Duration {
		if s.EveryCV <= 0 {
			return s.Every
		}
		return max(time.Duration(math.Exp(interval.Exponent(rng))), time.Nanosecond)
	}
	rr := 0
	t := sim.Time(rng.DurationUniform(0, s.Every))
	for t < sim.Time(horizon) {
		l := sampleLength()
		switch s.Mode {
		case noise.TargetAll:
			for _, c := range s.Cores {
				out = append(out, noise.Interruption{Start: t, Len: l, CPU: c, Source: s.Name})
			}
		case noise.TargetRoundRobin:
			out = append(out, noise.Interruption{Start: t, Len: l, CPU: s.Cores[rr%len(s.Cores)], Source: s.Name})
			rr++
		case noise.TargetRandom:
			out = append(out, noise.Interruption{Start: t, Len: l, CPU: s.Cores[rng.Intn(len(s.Cores))], Source: s.Name})
		default:
			out = append(out, noise.Interruption{Start: t, Len: l, CPU: s.Cores[0], Source: s.Name})
		}
		t = t.Add(sampleInterval())
	}
	return out
}

// refNode is the reference for one node: every source in profile order,
// each from rng.DeriveNamed(name).
func refNode(p *noise.Profile, horizon time.Duration, rng *sim.Rand) []noise.Interruption {
	var out []noise.Interruption
	for _, s := range p.Sources {
		out = refEvents(out, s, horizon, rng.DeriveNamed(s.Name))
	}
	return out
}

// checkKernel requires AppendNode to produce exactly the reference's
// interruptions for each seed, and Publish to report exactly the
// reference's per-source event counts and stolen time.
func checkKernel(t *testing.T, p *noise.Profile, horizon time.Duration, seeds []int64) {
	t.Helper()
	sub := p.Subsystem
	if sub == "" {
		sub = "noise"
	}
	g := p.Generator()
	var got []noise.Interruption
	for _, seed := range seeds {
		want := refNode(p, horizon, sim.NewRand(seed))
		got = g.AppendNode(got[:0], horizon, sim.NewRand(seed))
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: kernel drew %d interruptions, reference %d; first difference at %d",
				seed, len(got), len(want), i)
		}
		sink := telemetry.NewSink()
		g.Publish(sink)
		reg := sink.Registry()
		events := map[string]int64{}
		var stolen time.Duration
		for _, iv := range want {
			events[iv.Source]++
			stolen += iv.Len
		}
		for _, s := range p.Sources {
			if c := reg.CounterValue(sub + ".noise.events." + s.Name); c != events[s.Name] {
				t.Fatalf("seed %d: events.%s = %d, reference %d", seed, s.Name, c, events[s.Name])
			}
		}
		if c := reg.CounterValue(sub + ".noise.stolen_ns"); c != int64(stolen) {
			t.Fatalf("seed %d: stolen_ns = %d, reference %d", seed, c, stolen)
		}
	}
}

func seedRange(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i) - 3
	}
	return seeds
}

// TestKernelMatchesPerEventSampler pins the batched noise-event kernel to
// the per-event reference across every targeting mode, Pareto tails,
// zero CVs, disabled sources, horizons before the first arrival, event
// counts on either side of a full batch, and streams long enough to build
// the RNG register.
func TestKernelMatchesPerEventSampler(t *testing.T) {
	mixed := &noise.Profile{Subsystem: "linux"}
	mixed.MustAdd(&noise.Source{Name: "tick", Cores: []int{0, 1, 2, 3}, Mode: noise.TargetAll,
		Every: 4 * time.Millisecond, Length: 3 * time.Microsecond, LengthCV: 0.2})
	mixed.MustAdd(&noise.Source{Name: "kworker", Cores: []int{0, 2, 3, 5, 6}, Mode: noise.TargetRandom,
		Every: 3 * time.Millisecond, EveryCV: 1.2, Length: 40 * time.Microsecond, LengthCV: 0.8,
		TailProb: 0.05, TailFactor: 20})
	mixed.MustAdd(&noise.Source{Name: "irq", Cores: []int{3, 5, 9}, Mode: noise.TargetRoundRobin,
		Every: 5 * time.Millisecond, EveryCV: 0.3, Length: 15 * time.Microsecond})
	mixed.MustAdd(&noise.Source{Name: "daemon", Cores: []int{1}, Mode: noise.TargetOne,
		Every: 2 * time.Millisecond, Length: 100 * time.Microsecond, TailProb: 0.1, TailFactor: 4, TailAlpha: 3})
	mixed.MustAdd(&noise.Source{Name: "off", Cores: []int{2}, Mode: noise.TargetRandom,
		Every: time.Millisecond, EveryCV: 0.5, Length: time.Microsecond, LengthCV: 0.5, Disabled: true})
	mixed.MustAdd(&noise.Source{Name: "rare", Cores: []int{4, 7}, Mode: noise.TargetRandom,
		Every: time.Hour, EveryCV: 0.5, Length: time.Millisecond, LengthCV: 0.5})

	t.Run("modes", func(t *testing.T) { checkKernel(t, mixed, 150*time.Millisecond, seedRange(60)) })
	t.Run("before-first-arrival", func(t *testing.T) { checkKernel(t, mixed, 50*time.Microsecond, seedRange(60)) })
	t.Run("zero-horizon", func(t *testing.T) { checkKernel(t, mixed, 0, seedRange(5)) })

	// A periodic source whose first arrival is in [0, 1 ms) has exactly
	// H/1 ms events over a horizon of H: one short of a full batch, a full
	// batch and one past it.
	for _, n := range []int{31, 32, 33} {
		t.Run(fmt.Sprintf("%d-events", n), func(t *testing.T) {
			p := &noise.Profile{}
			p.MustAdd(&noise.Source{Name: "periodic", Cores: []int{0, 1, 2}, Mode: noise.TargetRandom,
				Every: time.Millisecond, Length: 5 * time.Microsecond, LengthCV: 0.4, TailProb: 0.2, TailFactor: 3})
			p.MustAdd(&noise.Source{Name: "jittered", Cores: []int{0, 1}, Mode: noise.TargetRoundRobin,
				Every: time.Millisecond, EveryCV: 0.05, Length: 5 * time.Microsecond})
			horizon := time.Duration(n) * time.Millisecond
			checkKernel(t, p, horizon, seedRange(40))
			if got := len(refEvents(nil, p.Sources[0], horizon, sim.NewRand(1))); got != n {
				t.Fatalf("periodic source drew %d events, the case needs %d", got, n)
			}
		})
	}

	// About 1,000 events of four draws each: every stream passes draw 273,
	// where the register is built, and batches keep going after it.
	t.Run("register-build", func(t *testing.T) {
		p := &noise.Profile{}
		p.MustAdd(&noise.Source{Name: "busy", Cores: []int{0, 1, 2, 3, 4}, Mode: noise.TargetRandom,
			Every: 100 * time.Microsecond, EveryCV: 0.7, Length: 2 * time.Microsecond, LengthCV: 0.6,
			TailProb: 0.01, TailFactor: 50})
		horizon := 100 * time.Millisecond
		if got := len(refEvents(nil, p.Sources[0], horizon, sim.NewRand(1))); got < 273 {
			t.Fatalf("busy source drew %d events, the case needs draw 273 and beyond", got)
		}
		checkKernel(t, p, horizon, seedRange(20))
	})

	// The paper's node profiles, over half a second.
	for _, pl := range []struct {
		name string
		p    *cluster.Platform
	}{{"fugaku", cluster.Fugaku()}, {"ofp", cluster.OFP()}} {
		for _, kind := range []cluster.OSKind{cluster.Linux, cluster.McKernel} {
			t.Run(fmt.Sprintf("%s-%v", pl.name, kind), func(t *testing.T) {
				node, err := pl.p.NewNode(kind)
				if err != nil {
					t.Fatal(err)
				}
				checkKernel(t, node.OS().NoiseProfile(), 500*time.Millisecond, seedRange(120))
			})
		}
	}
}
