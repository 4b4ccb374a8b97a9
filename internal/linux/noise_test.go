package linux

import (
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cpu"
	"mkos/internal/noise"
)

// probeConfig runs the FWQ experiment for one tuning and returns the merged
// analysis across nodes, mirroring the paper's Table 2 methodology.
func probeConfig(t *testing.T, tune Tuning, nodes int, dur time.Duration) noise.Analysis {
	t.Helper()
	topo := cpu.A64FX(2)
	if tune.Name == "ofp-linux" {
		topo = cpu.KNL()
	}
	k, err := NewKernel(topo, tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: dur, Cores: k.AppCores()}
	m, err := apps.FWQNoise(cfg, k, nodes, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTable2Shape verifies that the simulated FWQ experiment reproduces the
// shape of Table 2: which countermeasure matters how much, with magnitudes
// in the right decade. The run is shorter than the paper's (2 minutes on 8
// nodes instead of ~6 minutes on 16) to keep the suite fast; bounds are set
// accordingly. cmd/tablegen regenerates the full-scale table.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node FWQ simulation")
	}
	type row struct {
		name           string
		mutate         func(*Countermeasures)
		maxLo, maxHi   time.Duration
		rateLo, rateHi float64
	}
	us := time.Microsecond
	rows := []row{
		// Paper: 50.44 µs, 3.79e-6.
		{"baseline", func(c *Countermeasures) {}, 20 * us, 200 * us, 2e-6, 6e-6},
		// Paper: 20,346.98 µs, 9.94e-4.
		{"daemons-off", func(c *Countermeasures) { c.BindDaemons = false }, 5000 * us, 80000 * us, 5e-4, 2e-3},
		// Paper: 266.34 µs, 4.58e-6.
		{"kworker-off", func(c *Countermeasures) { c.BindKworkers = false }, 100 * us, 700 * us, 4e-6, 5.5e-6},
		// Paper: 387.91 µs, 4.58e-6.
		{"blkmq-off", func(c *Countermeasures) { c.BindBlkMQ = false }, 120 * us, 900 * us, 4e-6, 5.5e-6},
		// Paper: 103.09 µs, 8.27e-6.
		{"pmu-off", func(c *Countermeasures) { c.StopPMUReads = false }, 60 * us, 300 * us, 6.5e-6, 1.1e-5},
		// Paper: 90.2 µs, 3.87e-6.
		{"tlbi-off", func(c *Countermeasures) { c.SuppressGlobalTLBI = false }, 20 * us, 300 * us, 3e-6, 5e-6},
	}
	results := make(map[string]noise.Analysis)
	for _, r := range rows {
		tune := FugakuTuning()
		r.mutate(&tune.Counter)
		a := probeConfig(t, tune, 8, 2*time.Minute)
		results[r.name] = a
		t.Logf("%-12s max=%9.2fus rate=%.3g", r.name,
			float64(a.MaxNoise)/float64(us), a.Rate)
		if a.MaxNoise < r.maxLo || a.MaxNoise > r.maxHi {
			t.Errorf("%s: max noise %v outside [%v, %v]", r.name, a.MaxNoise, r.maxLo, r.maxHi)
		}
		if a.Rate < r.rateLo || a.Rate > r.rateHi {
			t.Errorf("%s: rate %v outside [%v, %v]", r.name, a.Rate, r.rateLo, r.rateHi)
		}
	}
	base := results["baseline"]
	for _, name := range []string{"daemons-off", "kworker-off", "blkmq-off", "pmu-off"} {
		if results[name].MaxNoise <= base.MaxNoise {
			t.Errorf("%s: disabling a countermeasure must raise max noise (%v <= %v)",
				name, results[name].MaxNoise, base.MaxNoise)
		}
		if results[name].Rate <= base.Rate {
			t.Errorf("%s: disabling a countermeasure must raise the noise rate", name)
		}
	}
	// Daemon binding dominates everything else by orders of magnitude.
	for _, name := range []string{"kworker-off", "blkmq-off", "pmu-off", "tlbi-off"} {
		if results["daemons-off"].MaxNoise < 10*results[name].MaxNoise {
			t.Errorf("daemon noise must dominate %s by >=10x", name)
		}
	}
}

// TestNoiseProfileComposition checks which sources exist for each tuning —
// the structural mapping from Sec. 4.2 to the model.
func TestNoiseProfileComposition(t *testing.T) {
	fugaku, err := NewKernel(cpu.A64FX(2), FugakuTuning(), 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	p := fugaku.NoiseProfile()
	for _, name := range []string{"sar", "fs-storm", "daemons", "kworkers", "blk-mq", "nohz-residual"} {
		if p.ByName(name) == nil {
			t.Errorf("Fugaku profile missing %q", name)
		}
	}
	// Countermeasures active: no PMU or TLBI sources, daemons on assistant
	// cores only.
	if p.ByName("pmu-read") != nil {
		t.Error("PMU reads must be stopped under full countermeasures")
	}
	if p.ByName("tlbi-broadcast") != nil {
		t.Error("TLBI broadcasts must be suppressed under full countermeasures")
	}
	appCores := map[int]bool{}
	for _, c := range fugaku.Topo.AppCores() {
		appCores[c] = true
	}
	for _, c := range p.ByName("daemons").Cores {
		if appCores[c] {
			t.Error("bound daemons must not target app cores")
		}
	}

	// With countermeasures off, the sources appear and target app cores.
	tune := FugakuTuning()
	tune.Counter = Countermeasures{}
	loose, err := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	pl := loose.NoiseProfile()
	if pl.ByName("pmu-read") == nil || pl.ByName("tlbi-broadcast") == nil {
		t.Error("disabled countermeasures must expose PMU/TLBI sources")
	}
	hitsApp := false
	for _, c := range pl.ByName("daemons").Cores {
		if appCores[c] {
			hitsApp = true
		}
	}
	if !hitsApp {
		t.Error("unbound daemons must be able to land on app cores")
	}

	// OFP profile: THP compaction and chip-wide IRQ noise; no TLBI source
	// (x86 has no broadcast TLBI).
	ofp, err := NewKernel(cpu.KNL(), OFPTuning(), 112<<30)
	if err != nil {
		t.Fatal(err)
	}
	po := ofp.NoiseProfile()
	for _, name := range []string{"daemons", "irq-balance", "thp-compaction", "sar", "nohz-residual"} {
		if po.ByName(name) == nil {
			t.Errorf("OFP profile missing %q", name)
		}
	}
	if po.ByName("tlbi-broadcast") != nil {
		t.Error("x86 profile must not have a TLBI broadcast source")
	}
}

// TestNoNohzTimerTick verifies the timer-tick source appears when nohz_full
// is off (the ablation the 6.5 ms FWQ quantum is designed around).
func TestNoNohzTimerTick(t *testing.T) {
	tune := FugakuTuning()
	tune.NohzFull = false
	k, err := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	p := k.NoiseProfile()
	if p.ByName("timer-tick") == nil {
		t.Fatal("no timer tick source without nohz_full")
	}
	if p.ByName("nohz-residual") != nil {
		t.Fatal("nohz residual must not coexist with the full tick")
	}
}

// TestOFPNoisierThanFugaku verifies the headline contrast of Figure 4: the
// moderately tuned OFP Linux is far more jittery than tuned Fugaku Linux.
func TestOFPNoisierThanFugaku(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node FWQ simulation")
	}
	ofp := probeConfig(t, OFPTuning(), 4, time.Minute)
	fugaku := probeConfig(t, FugakuTuning(), 4, time.Minute)
	t.Logf("OFP max=%v rate=%.3g; Fugaku max=%v rate=%.3g",
		ofp.MaxNoise, ofp.Rate, fugaku.MaxNoise, fugaku.Rate)
	if ofp.MaxNoise < 10*fugaku.MaxNoise {
		t.Errorf("OFP max noise %v must dwarf Fugaku %v", ofp.MaxNoise, fugaku.MaxNoise)
	}
	if ofp.Rate < 10*fugaku.Rate {
		t.Errorf("OFP rate %v must dwarf Fugaku %v", ofp.Rate, fugaku.Rate)
	}
}
