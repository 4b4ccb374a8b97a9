package main

import (
	"bytes"
	"os"
	"testing"

	"mkos/cmd/internal/report"
	"mkos/internal/core"
	"mkos/internal/sweep"
)

// TestFigure7Golden renders Figure 7 as `mkexp -figure 7` and `repro` do,
// through report.Figures, and requires it byte for byte equal to the
// committed results/figure7.txt: a change to any model on the bsp.Run path
// that moves a printed digit fails here.
func TestFigure7Golden(t *testing.T) {
	want, err := os.ReadFile("../../results/figure7.txt")
	if err != nil {
		t.Fatal(err)
	}
	specs := core.Figure7Specs()
	c, err := figureCampaign(specs, defaultRuns, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sweep.Run(c, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	report.Figures(&got, o, specs, false)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Figure 7 differs from results/figure7.txt\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
