// Package core is the experiment façade of the reproduction: it wires
// platforms, operating systems and workloads together and regenerates every
// table and figure of the paper's evaluation (Sec. 6). Each experiment
// returns structured results that cmd/ tools print and tests assert on.
package core

import (
	"fmt"
	"slices"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/stats"
	"mkos/internal/telemetry"
)

// Comparison is one (app, node count) Linux-vs-McKernel measurement:
// relative performance with Linux normalized to 1.0, exactly as the paper's
// Figures 5-7 plot it. Relative > 1 means McKernel is faster.
type Comparison struct {
	App      string
	Platform string
	Nodes    int
	// Relative is mean runtime(Linux)/runtime(McKernel) across seeds.
	Relative float64
	// RelErr is the standard deviation across seeds (the error bars).
	RelErr float64
	// LinuxRuntime and McKRuntime are mean runtimes.
	LinuxRuntime, McKRuntime time.Duration
	// Breakdowns of the last seed's runs, for diagnosis.
	LinuxBreakdown, McKBreakdown bsp.Breakdown
}

// Compare runs app on the platform at one node count under both OSes for
// each seed.
func Compare(p *cluster.Platform, app apps.App, nodes int, seeds []int64) (Comparison, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	nodes = p.ClampNodes(nodes)
	linuxMachine, _, err := p.Machine(cluster.Linux, app.Geometry)
	if err != nil {
		return Comparison{}, fmt.Errorf("core: building Linux machine: %w", err)
	}
	mckMachine, _, err := p.Machine(cluster.McKernel, app.Geometry)
	if err != nil {
		return Comparison{}, fmt.Errorf("core: building McKernel machine: %w", err)
	}
	out := Comparison{App: app.Workload.Name, Platform: p.Name, Nodes: nodes}
	var rels []float64
	var linSum, mckSum time.Duration
	for _, seed := range seeds {
		ra, rb, rel, err := bsp.Compare(app.Workload, linuxMachine, mckMachine, nodes, seed)
		if err != nil {
			return Comparison{}, err
		}
		rels = append(rels, rel)
		linSum += ra.Runtime
		mckSum += rb.Runtime
		out.LinuxBreakdown = ra.Breakdown
		out.McKBreakdown = rb.Breakdown
	}
	s, err := stats.Summarize(rels)
	if err != nil {
		return Comparison{}, err
	}
	out.Relative = s.Mean
	out.RelErr = s.Stddev
	out.LinuxRuntime = linSum / time.Duration(len(seeds))
	out.McKRuntime = mckSum / time.Duration(len(seeds))
	return out, nil
}

// Sweep runs an application across a list of node counts.
func Sweep(p *cluster.Platform, app apps.App, nodeCounts []int, seeds []int64) ([]Comparison, error) {
	var out []Comparison
	for _, n := range nodeCounts {
		if n > app.MaxNodes {
			continue
		}
		c, err := Compare(p, app, n, seeds)
		if err != nil {
			return nil, fmt.Errorf("core: %s at %d nodes: %w", app.Workload.Name, n, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// FigureSpec identifies one application panel of Figures 5-7.
type FigureSpec struct {
	Figure   string
	Platform apps.PlatformName
	App      string
	Nodes    []int
}

// Figure5Specs returns the CORAL panels of Figure 5 (OFP only).
func Figure5Specs() []FigureSpec {
	nodes := []int{16, 64, 256, 1024, 4096, 8192}
	var out []FigureSpec
	for _, app := range apps.CoralSuite() {
		out = append(out, FigureSpec{Figure: "5", Platform: apps.OnOFP, App: app, Nodes: nodes})
	}
	return out
}

// Figure6Specs returns the Fugaku-project apps on OFP.
func Figure6Specs() []FigureSpec {
	return []FigureSpec{
		{Figure: "6", Platform: apps.OnOFP, App: "LQCD", Nodes: []int{32, 128, 512, 2048}},
		{Figure: "6", Platform: apps.OnOFP, App: "GeoFEM", Nodes: []int{16, 64, 256, 1024, 4096, 8192}},
		{Figure: "6", Platform: apps.OnOFP, App: "GAMERA", Nodes: []int{64, 256, 1024, 4096}},
	}
}

// Figure7Specs returns the Fugaku-project apps on Fugaku (≤24 racks: the
// paper could not run larger scales due to resource limitations).
func Figure7Specs() []FigureSpec {
	nodes := []int{128, 512, 2048, 8192}
	var out []FigureSpec
	for _, app := range apps.FugakuSuite() {
		out = append(out, FigureSpec{Figure: "7", Platform: apps.OnFugaku, App: app, Nodes: nodes})
	}
	return out
}

// PlatformFor returns the cluster preset for a platform name.
func PlatformFor(p apps.PlatformName) *cluster.Platform {
	if p == apps.OnFugaku {
		return cluster.Fugaku()
	}
	return cluster.OFP()
}

// RunFigure executes one figure spec.
func RunFigure(spec FigureSpec, seeds []int64) ([]Comparison, error) {
	app, err := apps.ByName(spec.App, spec.Platform)
	if err != nil {
		return nil, err
	}
	return Sweep(PlatformFor(spec.Platform), app, spec.Nodes, seeds)
}

// --- Table 2 / Figure 3: noise countermeasures ----------------------------

// Table2Row is one row of Table 2, as the table prints it.
type Table2Row struct {
	Disabled  string
	MaxNoise  time.Duration
	NoiseRate float64
}

// Table2Config parameterizes the countermeasure experiment.
type Table2Config struct {
	Nodes    int
	Duration time.Duration
	Seed     int64
}

// DefaultTable2Config matches the paper: a 16-node in-house A64FX system.
func DefaultTable2Config() Table2Config {
	return Table2Config{Nodes: 16, Duration: 6 * time.Minute, Seed: 11}
}

// NoiseSeed is the seed of the committed Figure 3 series and Figure 4
// curves.
const NoiseSeed = 20211114

// table2Variant pairs a countermeasure's table label and its
// noiseprofile -countermeasure name with the tuning switch that disables
// it.
type table2Variant struct {
	name   string
	flag   string
	mutate func(*cluster.Platform)
}

// table2Variants lists the experiment's rows in paper order: the all-enabled
// baseline first, then one disabled countermeasure per row.
var table2Variants = []table2Variant{
	{"None", "none", func(*cluster.Platform) {}},
	{"Daemon process", "daemons", func(p *cluster.Platform) { p.Tuning.Counter.BindDaemons = false }},
	{"Unbound kworker tasks", "kworkers", func(p *cluster.Platform) { p.Tuning.Counter.BindKworkers = false }},
	{"blk-mq worker tasks", "blkmq", func(p *cluster.Platform) { p.Tuning.Counter.BindBlkMQ = false }},
	{"PMU counter reads", "pmu", func(p *cluster.Platform) { p.Tuning.Counter.StopPMUReads = false }},
	{"CPU-global flush instruction", "tlbi", func(p *cluster.Platform) { p.Tuning.Counter.SuppressGlobalTLBI = false }},
}

// Table2Variants returns the countermeasure labels in table order. Each is a
// valid argument to Table2Variant, and an independent trial for a sweep
// campaign.
func Table2Variants() []string {
	out := make([]string, len(table2Variants))
	for i, v := range table2Variants {
		out[i] = v.name
	}
	return out
}

// CountermeasureNode builds a Fugaku Linux node with one countermeasure
// disabled, named as noiseprofile -countermeasure names it: none (all on),
// daemons, kworkers, blkmq, pmu or tlbi. Its telemetry goes to sink.
func CountermeasureNode(cm string, sink *telemetry.Sink) (*cluster.Node, error) {
	i := slices.IndexFunc(table2Variants, func(v table2Variant) bool { return v.flag == cm })
	if i < 0 {
		return nil, fmt.Errorf("unknown countermeasure %q", cm)
	}
	p := cluster.Fugaku()
	p.Sink = sink
	table2Variants[i].mutate(p)
	return p.NewNode(cluster.Linux)
}

// Table2Variant reruns the FWQ experiment with one countermeasure disabled
// ("None" keeps all of them on): a single row of Table 2, reduced as each
// node is walked. Its telemetry goes to sink.
func Table2Variant(cfg Table2Config, disabled string, sink *telemetry.Sink) (Table2Row, error) {
	i := slices.IndexFunc(table2Variants, func(v table2Variant) bool { return v.name == disabled })
	if i < 0 {
		return Table2Row{}, fmt.Errorf("core: unknown Table 2 countermeasure %q", disabled)
	}
	node, err := CountermeasureNode(table2Variants[i].flag, sink)
	if err != nil {
		return Table2Row{}, err
	}
	fwqCfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: cfg.Duration, Cores: node.AppCores()}
	var nodes []noise.Analysis
	err = apps.FWQNodes(fwqCfg, node.Host, cfg.Nodes, cfg.Seed, func(cores []apps.FWQCore) error {
		a, err := apps.NodeAnalysis(cores)
		nodes = append(nodes, a)
		return err
	})
	if err != nil {
		return Table2Row{}, err
	}
	merged, err := noise.Merge(nodes)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{Disabled: disabled, MaxNoise: merged.MaxNoise, NoiseRate: merged.Rate}, nil
}

// Figure3Series runs FWQ for dur on the first application core of one
// CountermeasureNode(cm) and calls emit(i, us) for every iteration i in
// time order, us being its noise length in µs: Figure 3's series.
func Figure3Series(cm string, dur time.Duration, seed int64, emit func(i int64, us float64)) error {
	node, err := CountermeasureNode(cm, nil)
	if err != nil {
		return err
	}
	cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: dur, Cores: node.AppCores()[:1]}
	return apps.FWQNodes(cfg, node.Host, 1, seed, func(cores []apps.FWQCore) error {
		cores[0].Series(0, 1, 0, emit)
		return nil
	})
}

// --- Figure 4: FWQ latency CDFs -------------------------------------------

// CDFCurve is one curve of Figure 4. The distribution is held in compressed
// form (clean iterations counted, perturbed ones stored) so machine-scale
// node counts stay cheap.
type CDFCurve struct {
	Label string
	Nodes int
	CDF   *noise.IterationDist
}

// Figure4Config parameterizes the CDF experiment. Node counts are
// subsamples of the paper's scales (full Fugaku is 158,976 nodes; simulating
// every node is unnecessary — the per-node statistics are identical and the
// tail grows predictably with sample count, see EXPERIMENTS.md).
type Figure4Config struct {
	OFPNodes        int // paper: 1,024
	FugakuFullNodes int // paper: 158,976 (full scale)
	Fugaku24Racks   int // paper: 9,216 (24 racks)
	Duration        time.Duration
	WorstNodes      int // in-situ selection; paper keeps the 100 worst
	Seed            int64
}

// DefaultFigure4Config returns a laptop-scale subsample configuration.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		OFPNodes: 256, FugakuFullNodes: 1024, Fugaku24Racks: 128,
		Duration: 2 * time.Minute, WorstNodes: 100, Seed: NoiseSeed,
	}
}

// Figure4CurveSpec fully parameterizes one curve of Figure 4 — an
// independent unit of work a sweep campaign can run as its own trial.
type Figure4CurveSpec struct {
	Label      string        `json:"label"`
	Platform   string        `json:"platform"` // "fugaku" or "oakforest-pacs"
	OS         string        `json:"os"`       // "linux" or "mckernel"
	Nodes      int           `json:"nodes"`
	Duration   time.Duration `json:"duration"`
	WorstNodes int           `json:"worst_nodes"`
	Seed       int64         `json:"seed"`
}

// Figure4CurveSpecs expands a Figure4Config into the five curve specs of the
// figure: OFP Linux, OFP McKernel, Fugaku Linux full scale, Fugaku Linux 24
// racks, Fugaku McKernel 24 racks.
func Figure4CurveSpecs(cfg Figure4Config) []Figure4CurveSpec {
	mk := func(label, platform, os string, nodes int) Figure4CurveSpec {
		return Figure4CurveSpec{
			Label: label, Platform: platform, OS: os, Nodes: nodes,
			Duration: cfg.Duration, WorstNodes: cfg.WorstNodes, Seed: cfg.Seed,
		}
	}
	return []Figure4CurveSpec{
		mk("ofp-linux", "oakforest-pacs", "linux", cfg.OFPNodes),
		mk("ofp-mckernel", "oakforest-pacs", "mckernel", cfg.OFPNodes),
		mk("fugaku-linux-full", "fugaku", "linux", cfg.FugakuFullNodes),
		mk("fugaku-linux-24racks", "fugaku", "linux", cfg.Fugaku24Racks),
		mk("fugaku-mckernel-24racks", "fugaku", "mckernel", cfg.Fugaku24Racks),
	}
}

// Figure4Curve computes one curve, publishing its telemetry into sink.
func Figure4Curve(s Figure4CurveSpec, sink *telemetry.Sink) (CDFCurve, error) {
	platform := cluster.OFP()
	if s.Platform == "fugaku" {
		platform = cluster.Fugaku()
	}
	platform.Sink = sink
	kind := cluster.Linux
	if s.OS == "mckernel" {
		kind = cluster.McKernel
	}
	node, err := platform.NewNode(kind)
	if err != nil {
		return CDFCurve{}, err
	}
	fwqCfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: s.Duration, Cores: node.AppCores()}
	// In-situ selection: keep only the worst nodes' raw data, like the
	// paper's parallel-filesystem-friendly capture (Sec. 6.3).
	worst, err := apps.FWQWorstSketches(fwqCfg, node.OS(), s.Nodes, s.WorstNodes, s.Seed)
	if err != nil {
		return CDFCurve{}, err
	}
	dists := make([]*noise.IterationDist, len(worst))
	for i, sk := range worst {
		dists[i] = sk.Dist
	}
	return CDFCurve{Label: s.Label, Nodes: s.Nodes, CDF: noise.MergeDists(dists)}, nil
}

// Figure4 produces the five curves of Figure 4.
func Figure4(cfg Figure4Config, sink *telemetry.Sink) ([]CDFCurve, error) {
	var curves []CDFCurve
	for _, s := range Figure4CurveSpecs(cfg) {
		c, err := Figure4Curve(s, sink)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}
