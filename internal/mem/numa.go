package mem

import (
	"errors"
	"fmt"
)

// NodeKind distinguishes application NUMA domains from system ones under the
// virtual NUMA node scheme (Sec. 4.1.2).
type NodeKind int

const (
	// AppNode backs application allocations.
	AppNode NodeKind = iota
	// SysNode backs system (daemon, kernel) allocations; firmware exposes it
	// as a distinct NUMA domain so the kernel cannot mix the two.
	SysNode
)

func (k NodeKind) String() string {
	if k == SysNode {
		return "system"
	}
	return "app"
}

// NUMANode is one NUMA domain's physical memory.
type NUMANode struct {
	ID    int
	Kind  NodeKind
	Buddy *Buddy
}

// PhysMemory models a node's physical memory as a set of NUMA domains.
type PhysMemory struct {
	Nodes []*NUMANode
}

// ErrNoSuchNode is returned for out-of-range NUMA node IDs.
var ErrNoSuchNode = errors.New("mem: no such NUMA node")

// MemoryLayout configures PhysMemory construction.
type MemoryLayout struct {
	// AppNodes and SysNodes give per-domain capacities in bytes. With
	// virtual NUMA disabled, SysNodes is empty and system allocations fall
	// on app domains.
	AppNodes []int64
	SysNodes []int64
	// FastAppNodes adds bandwidth-tier application domains: OFP's KNL
	// nodes run in "Quadrant flat mode; i.e., MCDRAM and DDR4 RAM are
	// addressable at different physical memory locations and appear as
	// different NUMA domains" (Sec. 6.1).
	FastAppNodes []int64
	BasePage     int64
	MaxOrder     int
}

// NewPhysMemory builds the per-domain buddy allocators. Domain IDs are
// assigned app-first, matching cpu.Topology conventions.
func NewPhysMemory(layout MemoryLayout) (*PhysMemory, error) {
	if layout.BasePage <= 0 {
		return nil, fmt.Errorf("mem: bad base page %d", layout.BasePage)
	}
	pm := &PhysMemory{}
	var base int64
	add := func(size int64, kind NodeKind) error {
		maxBlock := layout.BasePage << layout.MaxOrder
		size = (size / maxBlock) * maxBlock
		if size <= 0 {
			return fmt.Errorf("mem: domain size too small for max block %d", maxBlock)
		}
		b, err := NewBuddy(base, size, layout.BasePage, layout.MaxOrder)
		if err != nil {
			return err
		}
		pm.Nodes = append(pm.Nodes, &NUMANode{ID: len(pm.Nodes), Kind: kind, Buddy: b})
		base += size
		return nil
	}
	for _, sz := range layout.AppNodes {
		if err := add(sz, AppNode); err != nil {
			return nil, err
		}
	}
	for _, sz := range layout.FastAppNodes {
		if err := add(sz, AppNode); err != nil {
			return nil, err
		}
	}
	for _, sz := range layout.SysNodes {
		if err := add(sz, SysNode); err != nil {
			return nil, err
		}
	}
	if len(pm.Nodes) == 0 {
		return nil, errors.New("mem: no NUMA domains configured")
	}
	return pm, nil
}

// Node returns domain id, or an error if out of range.
func (pm *PhysMemory) Node(id int) (*NUMANode, error) {
	if id < 0 || id >= len(pm.Nodes) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	return pm.Nodes[id], nil
}

// AppNodes returns the application domains.
func (pm *PhysMemory) AppNodes() []*NUMANode { return pm.nodesOf(AppNode) }

// SysNodes returns the system domains.
func (pm *PhysMemory) SysNodes() []*NUMANode { return pm.nodesOf(SysNode) }

func (pm *PhysMemory) nodesOf(kind NodeKind) []*NUMANode {
	var out []*NUMANode
	for _, n := range pm.Nodes {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// AllocKind allocates n bytes on the first domain of the requested kind with
// room, falling back across domains of that kind. Without virtual NUMA
// (no SysNode domains), system allocations land on app domains — the exact
// fragmentation hazard Sec. 4.1.2 describes.
func (pm *PhysMemory) AllocKind(kind NodeKind, n int64) (Region, error) {
	candidates := pm.nodesOf(kind)
	if len(candidates) == 0 && kind == SysNode {
		candidates = pm.nodesOf(AppNode)
	}
	var lastErr error = ErrOutOfMemory
	for _, node := range candidates {
		r, err := node.Buddy.Alloc(n)
		if err == nil {
			r.NUMA = node.ID
			return r, nil
		}
		lastErr = err
	}
	return Region{}, lastErr
}

// Free releases a region back to its domain.
func (pm *PhysMemory) Free(r Region) error {
	node, err := pm.Node(r.NUMA)
	if err != nil {
		return err
	}
	return node.Buddy.Free(r)
}

// TotalBytes returns the capacity across all domains.
func (pm *PhysMemory) TotalBytes() int64 {
	var n int64
	for _, node := range pm.Nodes {
		n += node.Buddy.TotalBytes()
	}
	return n
}

// FreeBytes returns free bytes across all domains.
func (pm *PhysMemory) FreeBytes() int64 {
	var n int64
	for _, node := range pm.Nodes {
		n += node.Buddy.FreeBytes()
	}
	return n
}

// AppFragmentation returns the mean fragmentation index of application
// domains at the given order — the quantity virtual NUMA nodes protect.
func (pm *PhysMemory) AppFragmentation(order int) float64 {
	nodes := pm.AppNodes()
	if len(nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range nodes {
		sum += n.Buddy.Fragmentation(order)
	}
	return sum / float64(len(nodes))
}
