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
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"mkos/cmd/internal/runner"
	"mkos/internal/core"
)

var (
	nodes   = flag.Int("nodes", 16, "number of simulated A64FX nodes (paper: 16)")
	minutes = flag.Float64("minutes", 6, "FWQ run length in minutes (paper: ~6)")
	seed    = flag.Int64("seed", 11, "simulation seed")
	asJSON  = flag.Bool("json", false, "emit JSON instead of the formatted table")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "tablegen", run)
}

// run regenerates the table row by row: each variant is an independent
// multi-minute FWQ rerun, so an interrupt stops at the next variant
// boundary and prints the rows already computed. Rows are deterministic per
// variant, so a partial table is a prefix of the full one.
func run(ctx context.Context, w *bufio.Writer) error {
	cfg := core.Table2Config{
		Nodes:    *nodes,
		Duration: time.Duration(*minutes * float64(time.Minute)),
		Seed:     *seed,
	}
	var rows []core.Table2Row
	variants := core.Table2Variants()
	for _, name := range variants {
		if ctx.Err() != nil {
			break
		}
		row, err := core.Table2Variant(cfg, name, nil)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	if *asJSON {
		type jsonRow struct {
			Disabled   string  `json:"disabled_technique"`
			MaxNoiseUS float64 `json:"max_noise_length_us"`
			NoiseRate  float64 `json:"noise_rate"`
			PaperMaxUS float64 `json:"paper_max_noise_length_us"`
			PaperRate  float64 `json:"paper_noise_rate"`
		}
		paper := paperTable2()
		var out []jsonRow
		for _, r := range rows {
			p := paper[r.Disabled]
			out = append(out, jsonRow{
				Disabled:   r.Disabled,
				MaxNoiseUS: float64(r.MaxNoise) / float64(time.Microsecond),
				NoiseRate:  r.NoiseRate,
				PaperMaxUS: p.maxUS, PaperRate: p.rate,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "Table 2: Effectiveness of individual noise elimination techniques\n")
		fmt.Fprintf(w, "(simulated %d-node A64FX system, %.1f-minute FWQ runs, 6.5 ms quanta)\n\n", cfg.Nodes, cfg.Duration.Minutes())
		fmt.Fprintf(w, "%-32s %18s %12s %14s %12s\n", "Disabled technique", "Max noise (us)", "Noise rate", "Paper max(us)", "Paper rate")
		paper := paperTable2()
		for _, r := range rows {
			p := paper[r.Disabled]
			fmt.Fprintf(w, "%-32s %18.2f %12.3g %14.2f %12.3g\n",
				r.Disabled, float64(r.MaxNoise)/float64(time.Microsecond), r.NoiseRate, p.maxUS, p.rate)
		}
	}
	if len(rows) < len(variants) {
		return fmt.Errorf("interrupted: %d of %d rows computed", len(rows), len(variants))
	}
	return nil
}

type paperRow struct {
	maxUS float64
	rate  float64
}

// paperTable2 returns the published Table 2 values for side-by-side output.
func paperTable2() map[string]paperRow {
	return map[string]paperRow{
		"None":                         {50.44, 3.79e-6},
		"Daemon process":               {20346.98, 9.94e-4},
		"Unbound kworker tasks":        {266.34, 4.58e-6},
		"blk-mq worker tasks":          {387.91, 4.58e-6},
		"PMU counter reads":            {103.09, 8.27e-6},
		"CPU-global flush instruction": {90.2, 3.87e-6},
	}
}
