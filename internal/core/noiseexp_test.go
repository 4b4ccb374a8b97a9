package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/stats"
)

// TestTable2Driver runs the Table 2 driver at reduced scale and checks the
// row structure and orderings.
func TestTable2Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("FWQ sweep")
	}
	// One row per countermeasure, disabling one at a time plus the
	// all-enabled baseline, as the Table 2 campaign runs them.
	var rows []Table2Row
	for _, name := range Table2Variants() {
		row, err := Table2Variant(Table2Config{Nodes: 2, Duration: 30 * time.Second, Seed: 11}, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (Table 2)", len(rows))
	}
	wantOrder := []string{
		"None", "Daemon process", "Unbound kworker tasks",
		"blk-mq worker tasks", "PMU counter reads", "CPU-global flush instruction",
	}
	byName := map[string]Table2Row{}
	for i, r := range rows {
		if r.Disabled != wantOrder[i] {
			t.Errorf("row %d = %q, want %q", i, r.Disabled, wantOrder[i])
		}
		if len(r.Series) == 0 || r.Series[0].X != 0 {
			t.Errorf("row %q has no Figure 3 series data", r.Disabled)
		}
		byName[r.Disabled] = r
	}
	base := byName["None"]
	if byName["Daemon process"].MaxNoise < 100*base.MaxNoise {
		t.Error("daemon row must dwarf the baseline")
	}
	if byName["Daemon process"].NoiseRate < 50*base.NoiseRate {
		t.Error("daemon rate must dwarf the baseline")
	}
	if byName["PMU counter reads"].NoiseRate <= base.NoiseRate {
		t.Error("PMU row must raise the rate")
	}
}

// TestTable2VariantMatchesReference checks every row at 2 nodes x 30 s
// against the timeline path: RunFWQ on each node's Profile.Timeline,
// noise.Analyze per core, noise.Merge over each node's cores and then over
// the nodes, and Figure 3's thinning over the concatenated Lengths. Every
// field and every point must match bit for bit.
func TestTable2VariantMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("FWQ sweep")
	}
	cfg := Table2Config{Nodes: 2, Duration: 30 * time.Second, Seed: 11}
	for _, v := range table2Variants {
		got, err := Table2Variant(cfg, v.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := cluster.Fugaku()
		v.mutate(p)
		node, err := p.NewNode(cluster.Linux)
		if err != nil {
			t.Fatal(err)
		}
		fwqCfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: cfg.Duration, Cores: node.AppCores()}
		want := Table2Row{Disabled: v.name}
		var nodes []noise.Analysis
		var place int64
		base := sim.NewRand(cfg.Seed)
		for n := 0; n < cfg.Nodes; n++ {
			run, err := apps.RunFWQ(fwqCfg, node.Host.NoiseProfile().Timeline(cfg.Duration, base.Derive(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int, 0, len(run.PerCore))
			for core := range run.PerCore {
				keys = append(keys, core)
			}
			slices.Sort(keys)
			var cores []noise.Analysis
			for _, core := range keys {
				a, err := noise.Analyze(run.PerCore[core])
				if err != nil {
					t.Fatal(err)
				}
				cores = append(cores, a)
			}
			a, err := noise.Merge(cores)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, a)
			for _, l := range a.Lengths {
				us := float64(l) / float64(time.Microsecond)
				if place%64 == 0 || us > 100 {
					want.Series = append(want.Series, stats.Point{X: float64(place), Y: us})
				}
				want.SeriesMax = max(want.SeriesMax, us)
				place++
			}
		}
		m, err := noise.Merge(nodes)
		if err != nil {
			t.Fatal(err)
		}
		want.MaxNoise, want.NoiseRate = m.MaxNoise, m.Rate
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: row (max %v, rate %v, series max %v, %d points) differs from the timeline reference's (max %v, rate %v, series max %v, %d points)",
				v.name, got.MaxNoise, got.NoiseRate, got.SeriesMax, len(got.Series),
				want.MaxNoise, want.NoiseRate, want.SeriesMax, len(want.Series))
		}
	}
}

// TestFigure4Driver checks the five curves and their qualitative orderings:
// OFP jittery, OFP McKernel < 7 ms, Fugaku full-scale tail > 24 racks,
// 24-rack Linux only slightly worse than McKernel (Sec. 6.3).
func TestFigure4Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("FWQ sweep")
	}
	// Node counts and duration chosen so the full-scale curve samples at
	// least one of the rare storm events that distinguish it (expected
	// count ~1.6); a 17:1 node ratio mirrors the paper's 158,976 : 9,216.
	cfg := Figure4Config{
		OFPNodes: 64, FugakuFullNodes: 768, Fugaku24Racks: 45,
		Duration: 2 * time.Minute, WorstNodes: 100, Seed: 20211114,
	}
	curves, err := Figure4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]CDFCurve{}
	for _, c := range curves {
		byLabel[c.Label] = c
		if c.CDF.N() == 0 {
			t.Fatalf("curve %s empty", c.Label)
		}
		t.Logf("%-24s nodes=%4d tail=%8.1f us", c.Label, c.Nodes, c.CDF.Max())
	}
	if len(curves) != 5 {
		t.Fatalf("curves = %d, want 5", len(curves))
	}

	ofpLinux := byLabel["ofp-linux"].CDF
	ofpMck := byLabel["ofp-mckernel"].CDF
	fullLinux := byLabel["fugaku-linux-full"].CDF
	racksLinux := byLabel["fugaku-linux-24racks"].CDF
	racksMck := byLabel["fugaku-mckernel-24racks"].CDF

	// OFP is far more jittery than Fugaku.
	if ofpLinux.Max() < 2*fullLinux.Max() {
		t.Errorf("OFP Linux tail %.0fus should dwarf Fugaku %.0fus", ofpLinux.Max(), fullLinux.Max())
	}
	// On OFP McKernel provides significant noise reduction, staying <7 ms.
	if ofpMck.Max() >= ofpLinux.Max() {
		t.Error("OFP McKernel must beat OFP Linux")
	}
	if ofpMck.Max() > 7000 {
		t.Errorf("OFP McKernel tail %.0fus exceeds the paper's 7ms bound", ofpMck.Max())
	}
	// Full-scale Fugaku Linux looks more jittery than 24 racks: with ~17x
	// the nodes it catches storm events the smaller sample misses.
	if fullLinux.Max() < racksLinux.Max()+500 {
		t.Errorf("full-scale tail (%.0fus) must clearly exceed the 24-rack tail (%.0fus)",
			fullLinux.Max(), racksLinux.Max())
	}
	// 24-rack Linux is "not that different, only slightly worse" than
	// McKernel: within 1 ms of iteration tail.
	if racksLinux.Max()-racksMck.Max() > 1000 {
		t.Errorf("24-rack Linux (%.0fus) should be close to McKernel (%.0fus)",
			racksLinux.Max(), racksMck.Max())
	}
	if racksMck.Max() > racksLinux.Max() {
		t.Error("McKernel must not be worse than tuned Linux at equal scale")
	}
}

// TestCompareClampsNodes verifies oversize node requests clamp to the
// machine.
func TestCompareClampsNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("application run")
	}
	app, err := apps.LQCD(apps.OnOFP)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(PlatformFor(apps.OnOFP), app, 100000, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 8192 {
		t.Fatalf("nodes = %d, want clamp to 8192", c.Nodes)
	}
}

// TestSweepSkipsOversizePoints verifies sweeps drop node counts beyond the
// app's plotted maximum.
func TestSweepSkipsOversizePoints(t *testing.T) {
	if testing.Short() {
		t.Skip("application run")
	}
	app, err := apps.LQCD(apps.OnOFP) // MaxNodes 2048
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Sweep(PlatformFor(apps.OnOFP), app, []int{1024, 2048, 4096}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("sweep points = %d, want 2 (4096 > MaxNodes)", len(cs))
	}
}

// TestFigureSpecsCoverPaper verifies the figure specs enumerate the paper's
// panels.
func TestFigureSpecsCoverPaper(t *testing.T) {
	f5 := Figure5Specs()
	if len(f5) != 3 {
		t.Fatalf("Figure 5 panels = %d", len(f5))
	}
	for _, s := range f5 {
		if s.Platform != apps.OnOFP {
			t.Error("CORAL panels are OFP-only")
		}
	}
	f6 := Figure6Specs()
	if len(f6) != 3 {
		t.Fatalf("Figure 6 panels = %d", len(f6))
	}
	var lqcdMax int
	for _, s := range f6 {
		if s.App == "LQCD" {
			for _, n := range s.Nodes {
				if n > lqcdMax {
					lqcdMax = n
				}
			}
		}
	}
	if lqcdMax != 2048 {
		t.Errorf("Figure 6 LQCD max nodes = %d, paper shows up to 2k", lqcdMax)
	}
	f7 := Figure7Specs()
	if len(f7) != 3 {
		t.Fatalf("Figure 7 panels = %d", len(f7))
	}
	for _, s := range f7 {
		if s.Platform != apps.OnFugaku {
			t.Error("Figure 7 is Fugaku")
		}
		for _, n := range s.Nodes {
			if n > 9216 {
				t.Error("Figure 7 capped at 24 racks (9,216 nodes)")
			}
		}
	}
}

// TestTable1PlatformAttributes cross-checks the cluster presets against the
// paper's Table 1.
func TestTable1PlatformAttributes(t *testing.T) {
	ofp := PlatformFor(apps.OnOFP)
	fugaku := PlatformFor(apps.OnFugaku)
	if ofp.MaxNodes != 8192 || fugaku.MaxNodes != 158976 {
		t.Fatal("node counts disagree with Table 1")
	}
	ot, ft := ofp.NewTopology(), fugaku.NewTopology()
	if ot.NumThreads() != 272 { // 68 cores x 4 SMT
		t.Fatalf("OFP logical CPUs = %d", ot.NumThreads())
	}
	if len(ft.AppCores()) != 48 {
		t.Fatalf("Fugaku app cores = %d", len(ft.AppCores()))
	}
	if ot.TLB.L2Entries != 64 || ft.TLB.L2Entries != 1024 {
		t.Fatal("TLB entries disagree with Table 1")
	}
	if !ofp.Tuning.NohzFull || !fugaku.Tuning.NohzFull {
		t.Fatal("both platforms run nohz_full on app cores")
	}
	if ofp.Tuning.CPUIsolation || !fugaku.Tuning.CPUIsolation {
		t.Fatal("CPU isolation: cgroups on Fugaku only")
	}
}
