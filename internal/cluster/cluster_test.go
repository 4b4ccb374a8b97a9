package cluster

import (
	"testing"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

func TestPlatformPresetsMatchTable1(t *testing.T) {
	ofp := OFP()
	if ofp.MaxNodes != 8192 {
		t.Fatalf("OFP nodes = %d, want 8,192 (Table 1)", ofp.MaxNodes)
	}
	if ofp.Fabric.Name != "Omni-Path" {
		t.Fatalf("OFP fabric = %s", ofp.Fabric.Name)
	}
	if ofp.MemBytes != 112<<30 {
		t.Fatalf("OFP memory = %d, want 96+16 GiB", ofp.MemBytes)
	}
	fugaku := Fugaku()
	if fugaku.MaxNodes != 158976 {
		t.Fatalf("Fugaku nodes = %d, want 158,976 (Table 1)", fugaku.MaxNodes)
	}
	if fugaku.Fabric.Name != "TofuD" {
		t.Fatalf("Fugaku fabric = %s", fugaku.Fabric.Name)
	}
	if fugaku.MemBytes != 32<<30 {
		t.Fatalf("Fugaku memory = %d, want 32 GiB HBM2", fugaku.MemBytes)
	}
}

func TestNewNodeLinux(t *testing.T) {
	for _, p := range []*Platform{OFP(), Fugaku()} {
		n, err := p.NewNode(Linux)
		if err != nil {
			t.Fatal(err)
		}
		if n.Kind != Linux || n.Host == nil || n.LWK != nil || n.IHK != nil {
			t.Fatalf("%s Linux node malformed", p.Name)
		}
		if n.OS() == nil {
			t.Fatal("nil OS model")
		}
		if len(n.AppCores()) == 0 {
			t.Fatal("no app cores")
		}
	}
}

func TestNewNodeMcKernel(t *testing.T) {
	for _, p := range []*Platform{OFP(), Fugaku()} {
		n, err := p.NewNode(McKernel)
		if err != nil {
			t.Fatal(err)
		}
		if n.LWK == nil || n.IHK == nil {
			t.Fatalf("%s McKernel node missing LWK/IHK", p.Name)
		}
		if !n.IHK.Booted() {
			t.Fatal("IHK partition not booted")
		}
		// The LWK gets all application cores.
		if len(n.AppCores()) != len(n.Host.Topo.AppCores()) {
			t.Fatalf("LWK cores = %d, want all app cores", len(n.AppCores()))
		}
		// Memory was detached from Linux.
		if n.IHK.ReservedMemoryBytes() == 0 {
			t.Fatal("no memory reserved for the LWK")
		}
	}
}

// TestNodeTelemetryReachesPlatformSink checks the plumbing from the
// platform to the kernels booted on it: the LWK's allocator and panic
// counters and the host's noise counters land in the platform's sink.
func TestNodeTelemetryReachesPlatformSink(t *testing.T) {
	p := OFP()
	p.Sink = telemetry.NewSink()
	node, err := p.NewNode(McKernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.LWK.LWKMem.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	_ = node.LWK.Panic("test")
	node.Host.NoiseProfile().Timeline(10*time.Second, sim.NewRand(1))
	reg := p.Sink.Registry()
	for _, name := range []string{"mckernel.mem.alloc_calls", "mckernel.panics", "linux.noise.stolen_ns"} {
		if reg.CounterValue(name) == 0 {
			t.Errorf("%s is not in the platform's sink", name)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	fugaku := Fugaku()
	// 4 ranks x 12 threads = 48 threads on 48 app cores: fits exactly.
	if err := fugaku.Validate(bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}); err != nil {
		t.Fatal(err)
	}
	// 49 threads does not fit.
	if err := fugaku.Validate(bsp.Geometry{RanksPerNode: 7, ThreadsPerRank: 7}); err == nil {
		t.Fatal("49 threads must not fit 48 cores")
	}
	if err := fugaku.Validate(bsp.Geometry{RanksPerNode: 0, ThreadsPerRank: 1}); err == nil {
		t.Fatal("zero ranks must be rejected")
	}
	// OFP has 256 app HW threads (64 cores x 4 SMT): 4x32 LQCD fits.
	ofp := OFP()
	if err := ofp.Validate(bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 32}); err != nil {
		t.Fatal(err)
	}
	if err := ofp.Validate(bsp.Geometry{RanksPerNode: 16, ThreadsPerRank: 17}); err == nil {
		t.Fatal("272 threads must not fit 256 app threads")
	}
}

func TestMachineAssembly(t *testing.T) {
	m, node, err := Fugaku().Machine(McKernel, bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12})
	if err != nil {
		t.Fatal(err)
	}
	if node == nil || m.OS == nil || m.Fabric == nil {
		t.Fatal("machine incomplete")
	}
	if m.OS.Name() != "fugaku-mckernel" {
		t.Fatalf("OS = %s", m.OS.Name())
	}
	if m.RanksPerNode != 4 || m.ThreadsPerRank != 12 {
		t.Fatal("geometry not propagated")
	}
	if _, _, err := Fugaku().Machine(Linux, bsp.Geometry{RanksPerNode: 100, ThreadsPerRank: 100}); err == nil {
		t.Fatal("invalid geometry must fail Machine()")
	}
}

func TestClampNodes(t *testing.T) {
	p := OFP()
	if p.ClampNodes(10000) != 8192 {
		t.Fatal("clamp high")
	}
	if p.ClampNodes(0) != 1 {
		t.Fatal("clamp low")
	}
	if p.ClampNodes(512) != 512 {
		t.Fatal("clamp identity")
	}
}

func TestOSKindString(t *testing.T) {
	if Linux.String() != "linux" || McKernel.String() != "mckernel" {
		t.Fatal("OSKind strings wrong")
	}
}

func TestHeterogeneousFugakuNodes(t *testing.T) {
	p := Fugaku()
	// Node 0 is an I/O-leader: 52 cores, 4 assistant (Sec. 3.2).
	leader, err := p.NewNodeAt(0, Linux)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(leader.Host.Topo.AssistantCores()); got != 4 {
		t.Fatalf("leader assistant cores = %d, want 4", got)
	}
	if got := leader.Host.Topo.NumCores(); got != 52 {
		t.Fatalf("leader cores = %d, want 52", got)
	}
	// Ordinary node: 50 cores, 2 assistant.
	plain, err := p.NewNodeAt(7, Linux)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plain.Host.Topo.AssistantCores()); got != 2 {
		t.Fatalf("plain assistant cores = %d, want 2", got)
	}
	// Both variants expose the same 48 application cores.
	if len(leader.AppCores()) != 48 || len(plain.AppCores()) != 48 {
		t.Fatal("both variants must offer 48 app cores")
	}
	// Default NewNode is an ordinary node.
	def, err := p.NewNode(Linux)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Host.Topo.AssistantCores()) != 2 {
		t.Fatal("default node must be the common 50-core variant")
	}
	// McKernel boots on both variants.
	if _, err := p.NewNodeAt(0, McKernel); err != nil {
		t.Fatal(err)
	}
	// OFP is homogeneous: TopologyAt nil, NewNodeAt still works.
	if _, err := OFP().NewNodeAt(5, Linux); err != nil {
		t.Fatal(err)
	}
}
