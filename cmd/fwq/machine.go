package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/shard/shardops"
	"mkos/internal/sim"
)

// runMachine executes the full-machine sharded FWQ campaign (Sec. 6.3): one
// digest per node reduced in situ, worst-K selection at the collector, full
// re-run of the selected nodes. The -out artifact is deterministic — byte
// identical at any -shards value; wall-clock numbers and the -ops-metrics
// exposition are the only places the shard count may show.
func runMachine(ctx context.Context, out io.Writer, p *cluster.Platform, kind cluster.OSKind) error {
	cfg, err := p.MachineFWQ(kind, *nodes,
		time.Duration(*workUS*float64(time.Microsecond)),
		time.Duration(*minutes*float64(time.Minute)),
		*seed, *shards, *worst)
	if err != nil {
		return err
	}
	if *coresPer > 0 {
		for i := range cfg.Classes {
			if len(cfg.Classes[i].Cores) > *coresPer {
				cfg.Classes[i].Cores = cfg.Classes[i].Cores[:*coresPer]
			}
		}
	}
	cfg.Cancel = func() bool { return ctx.Err() != nil }
	rec := shardops.New()
	cfg.Observer = rec

	start := time.Now()
	res, sres, err := apps.FWQMachine(cfg)
	wall := time.Since(start)
	if errors.Is(err, sim.ErrCanceled) {
		return errors.New("interrupted at a window barrier; no artifact written")
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "FWQ full-machine on %s/%s: %d nodes, %d shards, quantum %v, duration %v\n",
		p.Name, kind, res.Nodes, *shards, cfg.Work, cfg.Duration)
	fmt.Fprintf(out, "  wall time         %v\n", wall.Round(time.Millisecond))
	fmt.Fprintf(out, "  windows           %d\n", res.Windows)
	fmt.Fprintf(out, "  cross-shard msgs  %d of %d\n", sres.Stats.CrossMessages, sres.Stats.Messages)
	fmt.Fprintf(out, "  iterations        %d\n", res.Summary.N)
	fmt.Fprintf(out, "  Tmin              %v\n", time.Duration(res.Summary.TminNS))
	fmt.Fprintf(out, "  Tmax              %v\n", time.Duration(res.Summary.TmaxNS))
	fmt.Fprintf(out, "  max noise length  %v\n", time.Duration(res.Summary.MaxNoiseNS))
	fmt.Fprintf(out, "  noise rate (Eq.2) %.3g\n", res.Summary.Rate)
	fmt.Fprintf(out, "  worst %d nodes (by total noise):\n", len(res.Worst))
	for i, w := range res.Worst {
		if i >= 10 && !*perNode {
			fmt.Fprintf(out, "    ... %d more (see -out)\n", len(res.Worst)-i)
			break
		}
		fmt.Fprintf(out, "    node %6d  total=%v max=%v p99=%v\n",
			w.Node, time.Duration(w.Digest.TotalNoiseNS),
			time.Duration(w.Digest.MaxNoiseNS), time.Duration(w.P99NS))
	}

	if *outFile != "" {
		blob, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "  result written to %s\n", *outFile)
	}
	if *opsFile != "" {
		f, err := os.Create(*opsFile)
		if err != nil {
			return err
		}
		if err := rec.WriteExposition(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  ops metrics written to %s\n", *opsFile)
	}
	return nil
}
