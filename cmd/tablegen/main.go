// Command tablegen regenerates Table 2 of the paper: the effectiveness of
// each individual OS-noise elimination technique, measured by running the
// FWQ benchmark on a simulated 16-node A64FX system with one countermeasure
// disabled at a time.
//
// Usage:
//
//	tablegen [-nodes 16] [-minutes 6] [-seed 20210701] [-json]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"mkos/cmd/internal/report"
	"mkos/cmd/internal/runner"
	"mkos/internal/core"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

var (
	nodes   = flag.Int("nodes", 16, "number of simulated A64FX nodes (paper: 16)")
	minutes = flag.Float64("minutes", 6, "FWQ run length in minutes (paper: ~6)")
	seed    = flag.Int64("seed", 11, "simulation seed")
	asJSON  = flag.Bool("json", false, "emit JSON instead of the formatted table")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "tablegen", sweep.CampaignStopping, run)
}

// run regenerates the table through the Table 2 campaign, one trial per
// row on every core. An interrupt cancels the campaign and prints the rows
// finished by then, in table order; each row is deterministic on its own.
func run(ctx context.Context, w *bufio.Writer) error {
	cfg := core.Table2Config{
		Nodes:    *nodes,
		Duration: time.Duration(*minutes * float64(time.Minute)),
		Seed:     *seed,
	}
	o, err := sweep.RunContext(ctx, campaigns.Table2(cfg, cfg.Seed), sweep.Options{})
	if err != nil && !errors.Is(err, sweep.ErrInterrupted) {
		return err
	}
	rows, err := report.Table2Rows(o)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := report.Table2JSON(w, rows); err != nil {
			return err
		}
	} else {
		report.Table2(w, cfg, rows)
	}
	if n := len(core.Table2Variants()); len(rows) < n {
		return fmt.Errorf("interrupted: %d of %d rows computed", len(rows), n)
	}
	return nil
}
