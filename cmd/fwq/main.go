// Command fwq runs the Fixed Work Quanta noise benchmark (Sec. 6.2) on a
// simulated node or group of nodes under either OS, printing the paper's
// metrics: minimum/maximum iteration time, maximum noise length, and the
// Eq. 2 noise rate.
//
// Usage:
//
//	fwq [-platform fugaku|ofp] [-os linux|mckernel] [-nodes 1] [-minutes 1]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"mkos/cmd/internal/runner"
	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
)

var (
	platform = flag.String("platform", "fugaku", "platform: fugaku or ofp")
	osName   = flag.String("os", "linux", "operating system: linux or mckernel")
	nodes    = flag.Int("nodes", 1, "number of nodes to measure")
	minutes  = flag.Float64("minutes", 1, "run length in minutes")
	workUS   = flag.Float64("work", 6500, "work quantum in microseconds (paper: 6500)")
	seed     = flag.Int64("seed", 42, "simulation seed")
	perNode  = flag.Bool("per-node", false, "print per-node statistics")
	ftq      = flag.Bool("ftq", false, "run the FTQ (fixed time quanta) variant instead of FWQ")
	shards   = flag.Int("shards", 0, "run the sharded full-machine campaign on this many shards (0 = sequential per-node loop)")
	worst    = flag.Int("worst", 100, "sharded mode: worst nodes re-run for their exact iteration distribution (the paper keeps 100)")
	coresPer = flag.Int("cores", 0, "sharded mode: measure at most this many cores per node (0 = all app cores)")
	outFile  = flag.String("out", "", "sharded mode: write the deterministic machine result JSON here")
	opsFile  = flag.String("ops-metrics", "", "sharded mode: write runner ops metrics (Prometheus text) here")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "fwq", "stopping the FWQ run", run)
}

// run measures the platform's nodes. An interrupt stops the per-node loop
// at the next node boundary (sequential mode) or the next window barrier
// (sharded mode).
func run(ctx context.Context, out *bufio.Writer) error {
	var p *cluster.Platform
	switch *platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp":
		p = cluster.OFP()
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}
	var kind cluster.OSKind
	switch *osName {
	case "linux":
		kind = cluster.Linux
	case "mckernel":
		kind = cluster.McKernel
	default:
		return fmt.Errorf("unknown OS %q", *osName)
	}

	if *shards > 0 {
		return runMachine(ctx, out, p, kind)
	}
	node, err := p.NewNode(kind)
	if err != nil {
		return err
	}
	if *ftq {
		return runFTQ(out, p, kind, node, *workUS, *minutes, *seed)
	}
	cfg := apps.FWQConfig{
		Work:     time.Duration(*workUS * float64(time.Microsecond)),
		Duration: time.Duration(*minutes * float64(time.Minute)),
		Cores:    node.AppCores(),
	}
	analyses, err := apps.FWQAcrossNodesContext(ctx, cfg, node.OS(), *nodes, *seed)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	if interrupted && len(analyses) == 0 {
		return errors.New("interrupted before any node finished")
	}
	if *perNode {
		for i, a := range analyses {
			fmt.Fprintf(out, "node %4d: iters=%d Tmin=%v Tmax=%v max_noise=%v rate=%.3g\n",
				i, a.N, a.Tmin, a.Tmax, a.MaxNoise, a.Rate)
		}
	}
	m, err := noise.Merge(analyses)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "FWQ on %s/%s: %d node(s), %d cores/node, quantum %v, duration %v\n",
		p.Name, kind, len(analyses), len(cfg.Cores), cfg.Work, cfg.Duration)
	if interrupted {
		fmt.Fprintf(out, "  (interrupted: %d of %d nodes measured)\n", len(analyses), *nodes)
	}
	fmt.Fprintf(out, "  iterations        %d\n", m.N)
	fmt.Fprintf(out, "  Tmin              %v\n", m.Tmin)
	fmt.Fprintf(out, "  Tmax              %v\n", m.Tmax)
	fmt.Fprintf(out, "  max noise length  %v\n", m.MaxNoise)
	fmt.Fprintf(out, "  noise rate (Eq.2) %.3g\n", m.Rate)
	if interrupted {
		return fmt.Errorf("interrupted: %d of %d nodes measured", len(analyses), *nodes)
	}
	return nil
}

// runFTQ executes the fixed-time-quanta companion benchmark.
func runFTQ(out io.Writer, p *cluster.Platform, kind cluster.OSKind, node *cluster.Node, quantumUS, minutes float64, seed int64) error {
	cfg := apps.FTQConfig{
		Quantum:  time.Duration(quantumUS * float64(time.Microsecond)),
		UnitWork: time.Microsecond,
		Duration: time.Duration(minutes * float64(time.Minute)),
		Cores:    node.AppCores(),
	}
	tl := node.OS().NoiseProfile().Timeline(cfg.Duration, simRand(seed))
	run, err := apps.RunFTQ(cfg, tl)
	if err != nil {
		return err
	}
	a, err := run.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "FTQ on %s/%s: %d cores, quantum %v, unit %v, duration %v\n",
		p.Name, kind, len(cfg.Cores), cfg.Quantum, cfg.UnitWork, cfg.Duration)
	fmt.Fprintf(out, "  quanta            %d\n", a.N)
	fmt.Fprintf(out, "  max work units    %d\n", a.MaxCount)
	fmt.Fprintf(out, "  min work units    %d\n", a.MinCount)
	fmt.Fprintf(out, "  max loss          %v\n", a.MaxLoss)
	fmt.Fprintf(out, "  loss rate         %.3g\n", a.LossRate)
	return nil
}

// simRand builds the seeded generator the FTQ path uses.
func simRand(seed int64) *sim.Rand { return sim.NewRand(seed) }
