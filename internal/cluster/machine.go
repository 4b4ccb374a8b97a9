package cluster

import (
	"fmt"
	"time"

	"mkos/internal/apps"
)

// MachineFWQ assembles the sharded full-machine FWQ campaign configuration
// (apps.FWQMachine) for this platform: one booted OS model per node class,
// the class map, the conservative lookahead from the fabric's minimum
// latency, and the digest-report latency — routed Tofu hop latency when the
// platform has a torus geometry covering the run, uniform point-to-point
// otherwise. Zero work/duration select the paper's FWQ parameters.
//
// The caller may still adjust the returned config (shrink per-class core
// lists for cheaper runs, attach Cancel/Observer) before handing it to
// apps.FWQMachine; none of those knobs affect determinism except the core
// lists, which are part of the experiment definition.
func (p *Platform) MachineFWQ(kind OSKind, nodes int, work, duration time.Duration, seed int64, shards, worstK int) (apps.FWQMachineConfig, error) {
	var cfg apps.FWQMachineConfig
	nodes = p.ClampNodes(nodes)
	if work <= 0 {
		work = apps.DefaultFWQ(nil).Work
	}
	if duration <= 0 {
		duration = apps.DefaultFWQ(nil).Duration
	}

	classOf := p.NodeClass
	nClasses := p.NodeClasses
	if classOf == nil || nClasses <= 0 {
		classOf = func(int) int { return 0 }
		nClasses = 1
	}
	// Find one representative node index per class actually present in
	// [0, nodes), then compact the class ids: a 1-node Fugaku run contains
	// only the I/O-leader class.
	reps := make([]int, nClasses)
	for i := range reps {
		reps[i] = -1
	}
	found := 0
	for idx := 0; idx < nodes && found < nClasses; idx++ {
		c := classOf(idx)
		if c < 0 || c >= nClasses {
			return cfg, fmt.Errorf("cluster: node %d maps to class %d of %d", idx, c, nClasses)
		}
		if reps[c] == -1 {
			reps[c] = idx
			found++
		}
	}
	remap := make([]int, nClasses)
	classes := make([]apps.FWQClass, 0, found)
	for c, idx := range reps {
		remap[c] = -1
		if idx == -1 {
			continue
		}
		node, err := p.NewNodeAt(idx, kind)
		if err != nil {
			return cfg, fmt.Errorf("cluster: booting class-%d representative (node %d): %w", c, idx, err)
		}
		remap[c] = len(classes)
		classes = append(classes, apps.FWQClass{
			Cores:   node.AppCores(),
			Profile: node.OS().NoiseProfile(),
		})
	}

	var report func(src, dst int, bytes int64) (time.Duration, error)
	if p.Tofu != nil && nodes <= p.Tofu.Nodes() {
		geo, fab := *p.Tofu, p.Fabric
		report = func(src, dst int, bytes int64) (time.Duration, error) {
			return geo.HopLatency(fab, src, dst, bytes)
		}
	} else {
		fab, n := p.Fabric, nodes
		report = func(_, _ int, bytes int64) (time.Duration, error) {
			return fab.PointToPoint(bytes, n)
		}
	}

	return apps.FWQMachineConfig{
		Work: work, Duration: duration,
		Nodes: nodes, Seed: seed, Shards: shards, WorstK: worstK,
		Lookahead:     p.Fabric.MinLatency(),
		Classes:       classes,
		ClassOf:       func(n int) int { return remap[classOf(n)] },
		ReportLatency: report,
		Sink:          p.Sink,
	}, nil
}
