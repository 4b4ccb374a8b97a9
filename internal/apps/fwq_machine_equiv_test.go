package apps_test

import (
	"slices"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
)

// equivNodes is how many nodes each equivalence campaign runs; every node
// is also re-run, so each class gets equivNodes/2 digest and quantile
// comparisons.
const equivNodes = 40

// fugakuEquivConfig is a Fugaku campaign of equivNodes nodes whose classes
// alternate, so both node classes (compute and I/O leader) see 20 node
// seeds, and whose worst list is every node.
func fugakuEquivConfig(t *testing.T, kind cluster.OSKind) apps.FWQMachineConfig {
	t.Helper()
	cfg, err := cluster.Fugaku().MachineFWQ(kind, equivNodes, 0, 2*time.Second, 7, 2, equivNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Classes) != 2 {
		t.Fatalf("Fugaku campaign has %d node classes, want 2", len(cfg.Classes))
	}
	cfg.ClassOf = func(n int) int { return n % 2 }
	return cfg
}

// tieEquivConfig is a hand-built campaign whose broadcast sources are so
// dense and so short-period that same-instant events of different sources
// on one core are common.
func tieEquivConfig() apps.FWQMachineConfig {
	p := &noise.Profile{}
	cores := []int{0, 1, 2}
	p.MustAdd(&noise.Source{Name: "ipi", Cores: cores, Mode: noise.TargetAll,
		Every: 8 * time.Nanosecond, Length: time.Nanosecond})
	p.MustAdd(&noise.Source{Name: "tlbi", Cores: cores, Mode: noise.TargetAll,
		Every: 16 * time.Nanosecond, Length: 2 * time.Nanosecond})
	p.MustAdd(&noise.Source{Name: "kworker", Cores: cores, Mode: noise.TargetRandom,
		Every: 40 * time.Nanosecond, EveryCV: 0.5, Length: 3 * time.Nanosecond, LengthCV: 0.5})
	return apps.FWQMachineConfig{
		Work: time.Microsecond, Duration: 20 * time.Microsecond,
		Nodes: equivNodes, Seed: 5, Shards: 2, WorstK: equivNodes,
		Lookahead: 100 * time.Nanosecond,
		Classes:   []apps.FWQClass{{Cores: cores, Profile: p}},
	}
}

type equivConfig struct {
	name string
	cfg  apps.FWQMachineConfig
}

func equivConfigs(t *testing.T) []equivConfig {
	return []equivConfig{
		{"fugaku-linux", fugakuEquivConfig(t, cluster.Linux)},
		{"fugaku-mckernel", fugakuEquivConfig(t, cluster.McKernel)},
		{"ties", tieEquivConfig()},
	}
}

// nodeSeeds derives every node's stream seed the way the campaign does.
func nodeSeeds(cfg apps.FWQMachineConfig) []int64 {
	base := sim.NewRand(cfg.Seed)
	seeds := make([]int64, cfg.Nodes)
	for n := range seeds {
		seeds[n] = base.DeriveSeed(int64(n))
	}
	return seeds
}

func classOf(cfg apps.FWQMachineConfig, n int) int {
	if cfg.ClassOf == nil {
		return 0
	}
	return cfg.ClassOf(n)
}

// TestFWQMachineDigestEqualsSketch pins every in-situ digest to the digest
// of RunFWQSketch's analysis of a freshly generated Profile.Timeline, and
// every worst-node quantile to the full per-iteration run sorted: struct
// equality, so the rate must agree to the bit.
func TestFWQMachineDigestEqualsSketch(t *testing.T) {
	for _, ec := range equivConfigs(t) {
		cfg := ec.cfg
		t.Run(ec.name, func(t *testing.T) {
			res, _, err := apps.FWQMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Worst) != cfg.Nodes {
				t.Fatalf("%d worst nodes, want all %d", len(res.Worst), cfg.Nodes)
			}
			worst := map[int]apps.FWQWorstNode{}
			for _, w := range res.Worst {
				worst[w.Node] = w
			}
			for n, seed := range nodeSeeds(cfg) {
				class := cfg.Classes[classOf(cfg, n)]
				fwq := apps.FWQConfig{Work: cfg.Work, Duration: cfg.Duration, Cores: class.Cores}
				tl := class.Profile.Timeline(cfg.Duration, sim.NewRand(seed))
				sk, err := apps.RunFWQSketch(fwq, tl)
				if err != nil {
					t.Fatal(err)
				}
				if want := apps.DigestOf(n, sk.Analysis); res.Digests[n] != want {
					t.Fatalf("node %d digest %+v, sketch of a fresh timeline says %+v", n, res.Digests[n], want)
				}
				run, err := apps.RunFWQ(fwq, tl)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := worst[n], oracleWorst(run, n, classOf(cfg, n), res.Digests[n]); got != want {
					t.Fatalf("node %d re-run %+v, sorted full run says %+v", n, got, want)
				}
			}
		})
	}
}

// oracleWorst computes a worst node's quantiles from every iteration of a
// full run, sorted.
func oracleWorst(run *apps.FWQRun, node, cls int, d apps.FWQDigest) apps.FWQWorstNode {
	iters := run.AllIterations()
	slices.Sort(iters)
	q := func(p float64) int64 { return int64(iters[int(p*float64(len(iters)-1))]) }
	return apps.FWQWorstNode{
		Node: node, Class: cls, Digest: d,
		P50NS: q(0.50), P90NS: q(0.90), P99NS: q(0.99), P999NS: q(0.999),
		MaxNS: int64(iters[len(iters)-1]),
	}
}

// TestTimelineRefillEqualsFresh checks that a timeline refilled in place
// holds, core by core, exactly what a fresh Profile.Timeline holds, whether
// the node before it had more events or fewer.
func TestTimelineRefillEqualsFresh(t *testing.T) {
	ties := 0
	for _, ec := range equivConfigs(t) {
		cfg := ec.cfg
		t.Run(ec.name, func(t *testing.T) {
			seeds := nodeSeeds(cfg)
			for cls, class := range cfg.Classes {
				g := class.Profile.Generator()
				var tl noise.Timeline
				var buf []noise.Interruption
				for n, seed := range seeds {
					fresh := class.Profile.Timeline(cfg.Duration, sim.NewRand(seed))
					ties += sameInstantTies(fresh, class.Cores)
					// A longer horizon leaves more events behind, a zero one
					// none.
					for _, before := range []time.Duration{2 * cfg.Duration, 0} {
						buf = g.NodeInto(&tl, buf, before, sim.NewRand(seed+1))
						buf = g.NodeInto(&tl, buf, cfg.Duration, sim.NewRand(seed))
						for core := -1; core <= slices.Max(class.Cores)+1; core++ {
							if got, want := tl.ForCPU(core), fresh.ForCPU(core); !slices.Equal(got, want) {
								t.Fatalf("class %d node %d core %d after a %v node: refilled timeline has %d events, fresh %d",
									cls, n, core, before, len(got), len(want))
							}
						}
					}
				}
			}
		})
	}
	if ties == 0 {
		t.Fatal("no core saw two sources start at the same instant; the tie case is untested")
	}
}

// sameInstantTies counts adjacent events on one core that start together.
func sameInstantTies(tl *noise.Timeline, cores []int) int {
	n := 0
	for _, c := range cores {
		ivs := tl.ForCPU(c)
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start == ivs[i-1].Start {
				n++
			}
		}
	}
	return n
}
