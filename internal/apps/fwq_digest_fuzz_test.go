package apps_test

import (
	"slices"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/linux"
	"mkos/internal/noise"
	"mkos/internal/sim"
)

// digestCase is one node population FuzzFWQDigestMatchesTimeline draws
// nodes from: its classes, the FWQ quantum, and a short and a long run.
type digestCase struct {
	name        string
	work        time.Duration
	short, long time.Duration
	classes     []apps.FWQClass
}

// digestCases are Fugaku Linux with every countermeasure and with each
// Table 2 countermeasure off (the last three put the daemons, the TargetAll
// pmu-read and the TargetAll tlbi-broadcast sources on application cores),
// Fugaku McKernel, OFP Linux, and three hand-built profiles: one where
// sources often hit a core at the same instant, some events lasting 0 ns,
// one where long interruptions are followed by shorter ones, and a quiet
// one where most of the 64 measured cores see no event.
func digestCases(tb testing.TB) []digestCase {
	tb.Helper()
	machine := func(p *cluster.Platform, kind cluster.OSKind) []apps.FWQClass {
		cfg, err := p.MachineFWQ(kind, 2, 0, time.Second, 1, 1, 0)
		if err != nil {
			tb.Fatal(err)
		}
		return cfg.Classes
	}
	fugaku := func(off func(*linux.Countermeasures)) []apps.FWQClass {
		p := cluster.Fugaku()
		off(&p.Tuning.Counter)
		return machine(p, cluster.Linux)
	}
	paper := func(name string, classes []apps.FWQClass) digestCase {
		return digestCase{name, 6500 * time.Microsecond, 2 * time.Second, 6 * time.Minute, classes}
	}

	ties := &noise.Profile{}
	cores := []int{0, 1, 2}
	ties.MustAdd(&noise.Source{Name: "ipi", Cores: cores, Mode: noise.TargetAll,
		Every: 8 * time.Nanosecond, Length: time.Nanosecond})
	ties.MustAdd(&noise.Source{Name: "tlbi", Cores: cores, Mode: noise.TargetAll,
		Every: 16 * time.Nanosecond, Length: 2 * time.Nanosecond})
	ties.MustAdd(&noise.Source{Name: "kworker", Cores: cores, Mode: noise.TargetRandom,
		Every: 40 * time.Nanosecond, EveryCV: 0.5, Length: 3 * time.Nanosecond, LengthCV: 0.5})
	// Pareto lengths from a 0.5 ns scale truncate to 0 ns most of the time.
	ties.MustAdd(&noise.Source{Name: "zero", Cores: cores, Mode: noise.TargetAll,
		Every: 4 * time.Nanosecond, Length: time.Nanosecond, TailProb: 1, TailFactor: 0.5})

	nested := &noise.Profile{}
	nested.MustAdd(&noise.Source{Name: "long", Cores: []int{0, 1}, Mode: noise.TargetRoundRobin,
		Every: 5 * time.Microsecond, EveryCV: 0.3, Length: 3 * time.Microsecond, LengthCV: 0.5})
	nested.MustAdd(&noise.Source{Name: "short", Cores: []int{0, 1}, Mode: noise.TargetRandom,
		Every: 300 * time.Nanosecond, EveryCV: 0.5, Length: 20 * time.Nanosecond, LengthCV: 1,
		TailProb: 0.3, TailFactor: 0.02})

	quiet := &noise.Profile{}
	wide := make([]int, 64)
	for i := range wide {
		wide[i] = i
	}
	quiet.MustAdd(&noise.Source{Name: "rare", Cores: wide, Mode: noise.TargetRandom,
		Every: 15 * time.Microsecond, EveryCV: 0.5, Length: 2 * time.Microsecond, LengthCV: 0.5})
	quiet.MustAdd(&noise.Source{Name: "tick", Cores: []int{0}, Mode: noise.TargetAll,
		Every: 10 * time.Microsecond, Length: 500 * time.Nanosecond})

	return []digestCase{
		paper("fugaku-linux", fugaku(func(*linux.Countermeasures) {})),
		paper("fugaku-linux-kworkers", fugaku(func(c *linux.Countermeasures) { c.BindKworkers = false })),
		paper("fugaku-linux-blkmq", fugaku(func(c *linux.Countermeasures) { c.BindBlkMQ = false })),
		paper("fugaku-linux-daemons", fugaku(func(c *linux.Countermeasures) { c.BindDaemons = false })),
		paper("fugaku-linux-pmu", fugaku(func(c *linux.Countermeasures) { c.StopPMUReads = false })),
		paper("fugaku-linux-tlbi", fugaku(func(c *linux.Countermeasures) { c.SuppressGlobalTLBI = false })),
		paper("fugaku-mckernel", machine(cluster.Fugaku(), cluster.McKernel)),
		paper("ofp-linux", machine(cluster.OFP(), cluster.Linux)),
		{"ties", time.Microsecond, 20 * time.Microsecond, 400 * time.Microsecond,
			[]apps.FWQClass{{Cores: cores, Profile: ties}}},
		{"nested", time.Microsecond, 50 * time.Microsecond, time.Millisecond,
			[]apps.FWQClass{{Cores: []int{0, 1}, Profile: nested}}},
		{"quiet", time.Microsecond, 40 * time.Microsecond, 300 * time.Microsecond,
			[]apps.FWQClass{{Cores: wide, Profile: quiet}}},
	}
}

// FuzzFWQDigestMatchesTimeline pins the full-machine campaign's per-node
// walk, which never builds a timeline, to the node's Profile.Timeline:
//   - each measured core's events come out in exactly the timeline's order;
//   - the digest equals, field for field, the one of RunFWQSketch's
//     analysis of the timeline;
//   - the clean iterations and the perturbed durations are, as a multiset,
//     every iteration RunFWQ's Timeline.Advance loop measures;
//   - on each measured core, the clean iterations and the perturbed ones,
//     each at its place, spell out RunFWQ's iterations in order, and the
//     cores' perturbed durations in turn are the digest's.
//
// The seed corpus runs every case at its short length, and the Linux
// daemons, McKernel and the hand-built cases at their long one as well;
// the quiet case, whose cores mostly walk no event, runs two more seeds
// at each length.
func FuzzFWQDigestMatchesTimeline(f *testing.F) {
	cases := digestCases(f)
	for i, c := range cases {
		f.Add(uint8(i), int64(i+1), false)
		switch c.name {
		case "fugaku-linux-daemons", "fugaku-mckernel", "ties", "nested", "quiet":
			f.Add(uint8(i), int64(100+i), true)
		}
		if c.name == "quiet" {
			for _, seed := range []int64{7, 8} {
				f.Add(uint8(i), seed, false)
				f.Add(uint8(i), seed, true)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64, long bool) {
		c := cases[int(which)%len(cases)]
		cls := int(uint64(seed) % uint64(len(c.classes)))
		class := c.classes[cls]
		horizon := c.short
		if long {
			horizon = c.long
		}
		cfg := apps.FWQMachineConfig{Work: c.work, Duration: horizon, Classes: c.classes}
		got, err := apps.WalkNode(&cfg, cls, seed)
		if err != nil {
			t.Fatal(err)
		}

		tl := class.Profile.Timeline(horizon, sim.NewRand(seed))
		idle := 0
		for _, core := range class.Cores {
			if want := tl.ForCPU(core); !slices.Equal(got.Events[core], want) {
				t.Fatalf("%s class %d core %d: walked %d events, the timeline holds %d, or in another order",
					c.name, cls, core, len(got.Events[core]), len(want))
			}
			if len(got.Events[core]) == 0 {
				idle++
			}
		}
		if c.name == "quiet" && idle == 0 {
			t.Fatalf("quiet class %d: every measured core saw an event", cls)
		}
		fwq := apps.FWQConfig{Work: c.work, Duration: horizon, Cores: class.Cores}
		sk, err := apps.RunFWQSketch(fwq, tl)
		if err != nil {
			t.Fatal(err)
		}
		if want := apps.DigestOf(0, sk.Analysis); got.Digest != want {
			t.Fatalf("%s class %d: digest %+v, RunFWQSketch of the timeline says %+v", c.name, cls, got.Digest, want)
		}

		run, err := apps.RunFWQ(fwq, tl)
		if err != nil {
			t.Fatal(err)
		}
		iters := run.AllIterations()
		slices.Sort(iters)
		clean := got.Digest.N - len(got.Perturbed)
		perturbed := slices.Clone(got.Perturbed)
		slices.Sort(perturbed)
		if len(iters) != got.Digest.N || clean > 0 && iters[clean-1] != c.work || !slices.Equal(iters[clean:], perturbed) {
			t.Fatalf("%s class %d: %d clean iterations and %d perturbed ones differ from RunFWQ's %d iterations",
				c.name, cls, clean, len(got.Perturbed), len(iters))
		}
		var walked []time.Duration
		for _, core := range class.Cores {
			fc := got.Cores[core]
			if seq := fc.Iterations(); !slices.Equal(seq, run.PerCore[core]) {
				t.Fatalf("%s class %d core %d: the walk spells out %d iterations, RunFWQ measures %d, or others or in another order",
					c.name, cls, core, len(seq), len(run.PerCore[core]))
			}
			walked = append(walked, fc.Perturbed...)
		}
		if !slices.Equal(walked, got.Perturbed) {
			t.Fatalf("%s class %d: the cores' perturbed iterations are not the digest's", c.name, cls)
		}
	})
}
