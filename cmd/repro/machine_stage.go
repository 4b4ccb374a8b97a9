package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// runMachineStage is stage [6/6]: the full-machine sharded FWQ campaign with
// in-situ worst-node selection (Sec. 6.3). The fwq_machine.json artifact is
// deterministic and shard-count invariant; -shards only changes how the
// simulation is parallelized. Node count and duration are scaled well below
// the 158,976-node flagship run (cmd/fwq -shards covers that) so the stage
// stays a small slice of the repro's budget. Both halves of the stage report
// to sink: the sharded sweep's registries (shard.Result.Registry, folded in
// shard order and shard-count invariant) and the worst-node re-runs' noise
// counters. The stage's report goes to out.
func runMachineStage(ctx context.Context, out *bufio.Writer, sink *telemetry.Sink) error {
	nodes, duration, worstK := 4096, 4*time.Second, 100
	if *quick {
		nodes, duration, worstK = 256, 2*time.Second, 10
	}
	if err := progress(out, "[6/6] full-machine sharded FWQ (%d nodes, %d shards)...\n", nodes, *shards); err != nil {
		return err
	}
	p := cluster.Fugaku()
	p.Sink = sink
	cfg, err := p.MachineFWQ(cluster.Linux, nodes, 6500*time.Microsecond, duration, 42, *shards, worstK)
	if err != nil {
		return err
	}
	cfg.Cancel = func() bool { return ctx.Err() != nil }
	res, sres, err := apps.FWQMachine(cfg)
	if errors.Is(err, sim.ErrCanceled) {
		return errors.New("interrupted during the full-machine stage; no artifact written")
	}
	if err != nil {
		return err
	}
	sink.Registry().AddSnapshot(sres.Registry.Snapshot())
	fmt.Fprintf(out, "  %d windows, %d digests (%d cross-shard), worst node %d (total noise %v)\n",
		res.Windows, sres.Stats.Messages, sres.Stats.CrossMessages,
		res.Worst[0].Node, time.Duration(res.Worst[0].Digest.TotalNoiseNS))
	return writeFile(*outdir, "fwq_machine.json", func(w io.Writer) error {
		blob, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(blob, '\n'))
		return err
	})
}
