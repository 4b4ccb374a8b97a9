// Package cluster assembles full platform models: the Oakforest-PACS and
// Fugaku presets of Table 1 (hardware topology, memory, fabric, Linux
// tuning), node construction for either OS (native Linux or IHK/McKernel
// booted on an IHK partition), and the job-geometry check of Sec. 4.1.4
// (a job's ranks and threads must fit the application cores).
package cluster

import (
	"fmt"

	"mkos/internal/bsp"
	"mkos/internal/cpu"
	"mkos/internal/ihk"
	"mkos/internal/interconnect"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
	"mkos/internal/telemetry"
)

// OSKind selects the node operating system.
type OSKind int

const (
	// Linux runs the platform's native Linux environment.
	Linux OSKind = iota
	// McKernel runs IHK/McKernel beside the platform's Linux.
	McKernel
)

func (k OSKind) String() string {
	if k == McKernel {
		return "mckernel"
	}
	return "linux"
}

// Platform is a machine preset.
type Platform struct {
	Name     string
	MaxNodes int
	MemBytes int64
	Fabric   *interconnect.Fabric
	Tuning   linux.Tuning

	// NewTopology builds a fresh node topology (nodes own mutable state).
	NewTopology func() *cpu.Topology

	// TopologyAt builds the topology for a specific node index, letting a
	// platform model heterogeneous populations. On Fugaku "most compute
	// nodes are equipped with only 50 CPU cores" (2 assistant) while some
	// carry 52 (4 assistant) for extra system duties (Sec. 3.2 / Table 1).
	// Nil means every node uses NewTopology.
	TopologyAt func(idx int) *cpu.Topology

	// Tofu is the routed 6-D torus geometry for platforms wired with a Tofu
	// fabric; nil for platforms modeled by the uniform-hop Fabric alone.
	Tofu *interconnect.TofuGeometry

	// NodeClass partitions a heterogeneous node population into class ids
	// [0, NodeClasses) for machine-scale runs that boot one OS model per
	// class instead of one per node. It must agree with TopologyAt: nodes
	// of one class share a topology shape. Nil means a single class.
	NodeClass   func(idx int) int
	NodeClasses int

	// LWKReserveBytesPerDomain is how much memory IHK detaches per app NUMA
	// domain when booting McKernel.
	LWKReserveBytesPerDomain int64

	// Sink receives the telemetry of everything built on the platform: its
	// nodes' kernels, the machines and FWQ configurations it assembles, and
	// the schedulers that run on it. The presets leave it nil.
	Sink *telemetry.Sink
}

// OFP returns the Oakforest-PACS preset: 8,192 KNL nodes, Omni-Path,
// moderately tuned CentOS 7 (Table 1).
func OFP() *Platform {
	return &Platform{
		Name:     "oakforest-pacs",
		MaxNodes: 8192,
		MemBytes: 112 << 30, // 96 GiB DDR4 + 16 GiB MCDRAM
		Fabric:   interconnect.OmniPath(),
		Tuning:   linux.OFPTuning(),
		NewTopology: func() *cpu.Topology {
			return cpu.KNL()
		},
		LWKReserveBytesPerDomain: 16 << 30,
	}
}

// Fugaku returns the Fugaku preset: 158,976 A64FX nodes, TofuD, highly tuned
// RHEL 8 (Table 1, Sec. 4).
func Fugaku() *Platform {
	return &Platform{
		Name:     "fugaku",
		MaxNodes: 158976,
		MemBytes: 32 << 30,
		Fabric:   interconnect.TofuD(),
		Tuning:   linux.FugakuTuning(),
		NewTopology: func() *cpu.Topology {
			return cpu.A64FX(2)
		},
		// One node in sixteen is a 52-core node (I/O-leader duty).
		TopologyAt: func(idx int) *cpu.Topology {
			if idx%16 == 0 {
				return cpu.A64FX(4)
			}
			return cpu.A64FX(2)
		},
		Tofu: &fugakuTofu,
		// Class 0: the common 50-core node; class 1: the 52-core I/O leader.
		NodeClass: func(idx int) int {
			if idx%16 == 0 {
				return 1
			}
			return 0
		},
		NodeClasses:              2,
		LWKReserveBytesPerDomain: 6 << 30,
	}
}

// fugakuTofu is the shared 24x23x24 (x2x3x2) TofuD geometry; TofuGeometry is
// immutable, so one value serves every Fugaku() platform.
var fugakuTofu = interconnect.FugakuGeometry()

// Node is one compute node with its OS stack booted.
type Node struct {
	Platform *Platform
	Kind     OSKind
	Host     *linux.Kernel
	IHK      *ihk.Manager       // nil on native Linux nodes
	LWK      *mckernel.Instance // nil on native Linux nodes
}

// OS returns the node's bsp cost model.
func (n *Node) OS() bsp.OS {
	if n.Kind == McKernel {
		return n.LWK
	}
	return n.Host
}

// AppCores returns the cores applications run on under this OS.
func (n *Node) AppCores() []int {
	if n.Kind == McKernel {
		return n.LWK.Part.Cores
	}
	return n.Host.AppCores()
}

// NewNode boots one node of the platform under the chosen OS. For McKernel
// the sequence mirrors deployment: boot Linux, load IHK, reserve all
// application cores plus a memory slice, boot the LWK.
func (p *Platform) NewNode(kind OSKind) (*Node, error) {
	return p.NewNodeAt(1, kind)
}

// NewNodeAt boots the node at a specific index, honoring heterogeneous
// populations (TopologyAt).
func (p *Platform) NewNodeAt(idx int, kind OSKind) (*Node, error) {
	return p.NewNodeAtWithHooks(idx, kind, ihk.Hooks{})
}

// NewNodeAtWithHooks boots a node with fallible IHK operations: the hooks
// run before each reserve/boot step, exactly where a production prologue
// script can fail (Sec. 5.1). The fault injector uses this to model IHK
// reservation failures; an empty Hooks value is the normal path.
func (p *Platform) NewNodeAtWithHooks(idx int, kind OSKind, hooks ihk.Hooks) (*Node, error) {
	topo := p.NewTopology
	if p.TopologyAt != nil {
		topoAt := p.TopologyAt
		topo = func() *cpu.Topology { return topoAt(idx) }
	}
	host, err := linux.NewKernel(topo(), p.Tuning, p.MemBytes)
	if err != nil {
		return nil, fmt.Errorf("cluster: booting Linux on %s: %w", p.Name, err)
	}
	host.Sink = p.Sink
	node := &Node{Platform: p, Kind: kind, Host: host}
	if kind == Linux {
		return node, nil
	}
	mgr := ihk.NewManager(host)
	mgr.Hooks = hooks
	if err := mgr.ReserveCPUs(host.Topo.AppCores()); err != nil {
		return nil, fmt.Errorf("cluster: reserving cores: %w", err)
	}
	if err := mgr.ReserveMemory(p.LWKReserveBytesPerDomain); err != nil {
		return nil, fmt.Errorf("cluster: reserving memory: %w", err)
	}
	part, err := mgr.Boot()
	if err != nil {
		return nil, fmt.Errorf("cluster: booting partition: %w", err)
	}
	lwk, err := mckernel.Boot(host, part, mckernel.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("cluster: booting McKernel: %w", err)
	}
	node.IHK = mgr
	node.LWK = lwk
	return node, nil
}

// Validate checks the geometry fits the platform's application cores.
func (p *Platform) Validate(g bsp.Geometry) error {
	topo := p.NewTopology()
	appCores := len(topo.AppCores())
	appThreads := topo.AppThreads()
	if g.RanksPerNode < 1 || g.ThreadsPerRank < 1 {
		return fmt.Errorf("cluster: bad geometry %d x %d", g.RanksPerNode, g.ThreadsPerRank)
	}
	need := g.RanksPerNode * g.ThreadsPerRank
	if need > appThreads {
		return fmt.Errorf("cluster: geometry %dx%d needs %d HW threads, node has %d app threads (%d cores)",
			g.RanksPerNode, g.ThreadsPerRank, need, appThreads, appCores)
	}
	return nil
}

// Machine builds the bsp.Machine for a job on this platform.
func (p *Platform) Machine(kind OSKind, g bsp.Geometry) (bsp.Machine, *Node, error) {
	if err := p.Validate(g); err != nil {
		return bsp.Machine{}, nil, err
	}
	node, err := p.NewNode(kind)
	if err != nil {
		return bsp.Machine{}, nil, err
	}
	return bsp.Machine{
		OS:             node.OS(),
		Fabric:         p.Fabric,
		Cores:          node.AppCores(),
		RanksPerNode:   g.RanksPerNode,
		ThreadsPerRank: g.ThreadsPerRank,
		Sink:           p.Sink,
	}, node, nil
}

// ClampNodes limits a requested node count to the platform size.
func (p *Platform) ClampNodes(n int) int {
	if n > p.MaxNodes {
		return p.MaxNodes
	}
	if n < 1 {
		return 1
	}
	return n
}
