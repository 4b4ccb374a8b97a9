// Package report holds the one printer of each committed artifact under
// results/: Table 2, the Figure 3 series, the Figure 4 CDFs and the
// Figure 5-7 panels. cmd/repro and the standalone commands (tablegen,
// noiseprofile, mkexp) print through the same functions, so a file repro
// writes is byte for byte what the standalone command prints.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mkos/internal/apps"
	"mkos/internal/core"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// Table2Rows decodes the finished rows of a campaigns.Table2 outcome, in
// table order; an interrupted campaign leaves rows out.
func Table2Rows(o *sweep.Outcome) ([]core.Table2Row, error) {
	var rows []core.Table2Row
	for i, name := range core.Table2Variants() {
		key := campaigns.Table2Key(i, name)
		if _, done := o.Result(key); !done {
			continue
		}
		var r core.Table2Row
		if err := o.Payload(key, &r); err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// paperRow is a row of the published Table 2.
type paperRow struct {
	maxUS float64
	rate  float64
}

// paperTable2 holds the published Table 2 values, by row label.
var paperTable2 = map[string]paperRow{
	"None":                         {50.44, 3.79e-6},
	"Daemon process":               {20346.98, 9.94e-4},
	"Unbound kworker tasks":        {266.34, 4.58e-6},
	"blk-mq worker tasks":          {387.91, 4.58e-6},
	"PMU counter reads":            {103.09, 8.27e-6},
	"CPU-global flush instruction": {90.2, 3.87e-6},
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Table2 writes rows measured under cfg beside the paper's values, as
// results/table2.txt holds them.
func Table2(w io.Writer, cfg core.Table2Config, rows []core.Table2Row) {
	fmt.Fprintf(w, "Table 2: Effectiveness of individual noise elimination techniques\n")
	fmt.Fprintf(w, "(simulated %d-node A64FX system, %.1f-minute FWQ runs, 6.5 ms quanta)\n\n", cfg.Nodes, cfg.Duration.Minutes())
	fmt.Fprintf(w, "%-32s %18s %12s %14s %12s\n", "Disabled technique", "Max noise (us)", "Noise rate", "Paper max(us)", "Paper rate")
	for _, r := range rows {
		p := paperTable2[r.Disabled]
		fmt.Fprintf(w, "%-32s %18.2f %12.3g %14.2f %12.3g\n",
			r.Disabled, micros(r.MaxNoise), r.NoiseRate, p.maxUS, p.rate)
	}
}

// Table2JSON writes rows beside the paper's values as an indented JSON
// array.
func Table2JSON(w io.Writer, rows []core.Table2Row) error {
	type jsonRow struct {
		Disabled   string  `json:"disabled_technique"`
		MaxNoiseUS float64 `json:"max_noise_length_us"`
		NoiseRate  float64 `json:"noise_rate"`
		PaperMaxUS float64 `json:"paper_max_noise_length_us"`
		PaperRate  float64 `json:"paper_noise_rate"`
	}
	var out []jsonRow
	for _, r := range rows {
		p := paperTable2[r.Disabled]
		out = append(out, jsonRow{r.Disabled, micros(r.MaxNoise), r.NoiseRate, p.maxUS, p.rate})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Figure3 writes core.Figure3Series(cm, dur, seed), as
// results/figure3_baseline.txt (cm "none") and figure3_daemons.txt hold
// it for a 6-minute run.
func Figure3(w io.Writer, cm string, dur time.Duration, seed int64) error {
	fmt.Fprintf(w, "# Figure 3 noise-length time series, countermeasure disabled: %s\n", cm)
	fmt.Fprintf(w, "# sample_id noise_length_us\n")
	return core.Figure3Series(cm, dur, seed, func(i int64, us float64) {
		fmt.Fprintf(w, "%d %.3f\n", i, us)
	})
}

// Figure4 writes curves, each the worst nodes' merged CDF, at points
// points per curve, as results/figure4.txt holds them.
func Figure4(w io.Writer, curves []core.CDFCurve, worst, points int) {
	fmt.Fprintf(w, "# Figure 4: FWQ iteration-latency CDFs (worst %d nodes per config)\n", worst)
	fmt.Fprintf(w, "# node counts are subsamples of the paper's scales; see EXPERIMENTS.md\n")
	for _, c := range curves {
		fmt.Fprintf(w, "\n# curve %s (%d nodes), max iteration %.2f us\n", c.Label, c.Nodes, c.CDF.Max())
		fmt.Fprintf(w, "# iteration_us cumulative_probability\n")
		for _, pt := range c.CDF.Points(points) {
			fmt.Fprintf(w, "%.2f %.8f\n", pt.X, pt.Y)
		}
	}
}

// Figures writes every panel of specs from an outcome of
// campaigns.FigurePoints, as results/figure5.txt, figure6.txt and
// figure7.txt hold Figures 5, 6 and 7. It skips node counts above an
// application's maximum (never enumerated, matching core.Sweep) and prints
// a failed point's error in its row. fom adds each application's custom
// metric.
func Figures(w io.Writer, o *sweep.Outcome, specs []core.FigureSpec, fom bool) {
	for _, spec := range specs {
		fmt.Fprintf(w, "\n# Figure %s: %s on %s (relative performance, Linux = 1.0)\n",
			spec.Figure, spec.App, spec.Platform)
		fmt.Fprintf(w, "%-8s %10s %8s %16s %16s\n", "nodes", "mckernel", "+/-", "linux_runtime", "mck_runtime")
		app, appErr := apps.ByName(spec.App, spec.Platform)
		for _, n := range spec.Nodes {
			if appErr == nil && n > app.MaxNodes {
				continue
			}
			key := campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, n)
			var c core.Comparison
			if err := o.Payload(key, &c); err != nil {
				fmt.Fprintf(w, "%-8d FAILED: %v\n", n, err)
				continue
			}
			fmt.Fprintf(w, "%-8d %10.3f %8.3f %16s %16s",
				c.Nodes, c.Relative, c.RelErr, c.LinuxRuntime.Round(0), c.McKRuntime.Round(0))
			if fom && appErr == nil {
				lin := app.MetricFor(c.LinuxRuntime, c.Nodes)
				mck := app.MetricFor(c.McKRuntime, c.Nodes)
				fmt.Fprintf(w, "   linux %s | mckernel %s", lin, mck)
			}
			fmt.Fprintln(w)
		}
	}
}
