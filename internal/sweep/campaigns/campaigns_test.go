package campaigns_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// runArtifacts executes the campaign and renders its deterministic surfaces.
func runArtifacts(t *testing.T, c *sweep.Campaign, workers int) ([]byte, *sweep.Outcome) {
	t.Helper()
	o, err := sweep.Run(c, sweep.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	blob, err := json.Marshal(o.Results)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(blob)
	if _, err := o.Registry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), o
}

// smallFigure4 keeps the real-simulation determinism test fast.
func smallFigure4() core.Figure4Config {
	return core.Figure4Config{
		OFPNodes: 6, FugakuFullNodes: 8, Fugaku24Racks: 4,
		Duration: 3 * time.Second, WorstNodes: 4, Seed: 20211114,
	}
}

// TestFigure4CampaignMatchesSerial: the campaign path must reproduce the
// serial core.Figure4 curves exactly (same labels, tails and CDF points).
func TestFigure4CampaignMatchesSerial(t *testing.T) {
	cfg := smallFigure4()
	serial, err := core.Figure4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, o := runArtifacts(t, campaigns.Figure4(cfg, 1, 1), 4)
	merged, err := campaigns.MergeFigure4(o, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(serial) {
		t.Fatalf("curve count %d, want %d", len(merged), len(serial))
	}
	for i := range serial {
		if merged[i].Label != serial[i].Label || merged[i].Nodes != serial[i].Nodes {
			t.Fatalf("curve %d = %s/%d, want %s/%d", i,
				merged[i].Label, merged[i].Nodes, serial[i].Label, serial[i].Nodes)
		}
		if merged[i].CDF.Max() != serial[i].CDF.Max() || merged[i].CDF.N() != serial[i].CDF.N() {
			t.Fatalf("curve %s diverged from serial: max %g/%g n %d/%d", merged[i].Label,
				merged[i].CDF.Max(), serial[i].CDF.Max(), merged[i].CDF.N(), serial[i].CDF.N())
		}
	}
}

// TestRealCampaignDeterministicAcrossWorkers runs real simulation trials
// (Figure 4 iterations and a fault sweep) at -j 1 and -j 8 and requires
// byte-identical merged results and telemetry.
func TestRealCampaignDeterministicAcrossWorkers(t *testing.T) {
	build := func() *sweep.Campaign {
		c := campaigns.Figure4(smallFigure4(), 2, 7)
		rates := fault.Rates{
			NodeCrashPerHour: 500, LWKPanicPerHour: 2000, LWKHangPerHour: 1000,
			IHKReserveFailProb: 0.05, IKCTimeoutProb: 0.05, LWKOOMProb: 0.05,
		}
		var specs []campaigns.FaultPointSpec
		for _, os := range []string{"linux", "mckernel"} {
			specs = append(specs, campaigns.FaultPointSpec{
				Platform: "fugaku", OS: os, Intensity: 1, Rates: rates,
				Jobs: 2, Nodes: 4, Seed: 42,
			})
		}
		fc := campaigns.FaultSweep("fault", specs, 7)
		c.Name = "mixed"
		c.Trials = append(c.Trials, fc.Trials...)
		return c
	}
	a1, _ := runArtifacts(t, build(), 1)
	a8, _ := runArtifacts(t, build(), 8)
	if !bytes.Equal(a1, a8) {
		t.Fatalf("-j 8 real-simulation artifacts differ from -j 1 (len %d vs %d)", len(a1), len(a8))
	}
}

// TestFigurePointsMatchSerialSweep: a figure campaign's points must equal
// core.Sweep's serial output, including the skip of oversize node counts.
func TestFigurePointsMatchSerialSweep(t *testing.T) {
	specs := []core.FigureSpec{
		{Figure: "6", Platform: apps.OnOFP, App: "LQCD", Nodes: []int{8, 16, 4096}}, // 4096 > LQCD max
	}
	seeds := []int64{1}
	c, err := campaigns.FigurePoints("figs", specs, seeds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trials) != 2 {
		t.Fatalf("enumerated %d trials, want 2 (oversize point skipped)", len(c.Trials))
	}
	_, o := runArtifacts(t, c, 4)
	for _, spec := range specs {
		serial, err := core.RunFigure(spec, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range serial {
			var got core.Comparison
			key := campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, want.Nodes)
			if err := o.Payload(key, &got); err != nil {
				t.Fatal(err)
			}
			if got.Relative != want.Relative || got.LinuxRuntime != want.LinuxRuntime {
				t.Fatalf("%s: campaign %+v != serial %+v", key, got, want)
			}
		}
	}
}

// TestFaultPointMatchesSerialReport: the campaign's per-point failure report
// must be byte-identical to a direct serial run with the same parameters.
func TestFaultPointMatchesSerialReport(t *testing.T) {
	spec := campaigns.FaultPointSpec{
		Platform: "fugaku", OS: "mckernel", Intensity: 2,
		Rates: fault.Rates{
			NodeCrashPerHour: 1000, LWKPanicPerHour: 4000, LWKHangPerHour: 2000,
			IHKReserveFailProb: 0.04, IKCTimeoutProb: 0.06, LWKOOMProb: 0.06,
		},
		Jobs: 3, Nodes: 4, Seed: 42,
	}
	c := campaigns.FaultSweep("fault", []campaigns.FaultPointSpec{spec}, 1)
	_, o := runArtifacts(t, c, 2)
	var got campaigns.FaultPointResult
	if err := o.Payload(campaigns.FaultKey(spec), &got); err != nil {
		t.Fatal(err)
	}
	_, o2 := runArtifacts(t, campaigns.FaultSweep("fault", []campaigns.FaultPointSpec{spec}, 1), 1)
	var again campaigns.FaultPointResult
	if err := o2.Payload(campaigns.FaultKey(spec), &again); err != nil {
		t.Fatal(err)
	}
	if got.Text != again.Text {
		t.Fatalf("failure report not reproducible:\n%s\nvs\n%s", got.Text, again.Text)
	}
	if got.Report.Jobs != spec.Jobs {
		t.Fatalf("report jobs = %d, want %d", got.Report.Jobs, spec.Jobs)
	}
}

// TestFaultSweepEngineCounts pins the recovery engines' counts in the
// merged registry to what `faultexp -jobs 2 -nodes 4` publishes: 73 events
// over the ten points and a pending high-water mark of 4. The resilient
// scheduler publishes its engine after each job it drains.
func TestFaultSweepEngineCounts(t *testing.T) {
	specs := campaigns.FaultPoints("fugaku", []float64{0, 0.5, 1, 2, 4}, campaigns.DefaultFaultRates(), 2, 4, 42)
	_, o := runArtifacts(t, campaigns.FaultSweep("faultexp", specs, 42), 2)
	if got := o.Registry.CounterValue("sim.events_fired"); got != 73 {
		t.Errorf("sim.events_fired = %d, want 73", got)
	}
	if got := o.Registry.Gauge("sim.queue_depth_hwm").Value(); got != 4 {
		t.Errorf("sim.queue_depth_hwm = %g, want 4", got)
	}
}
