// Package interconnect models the two fabrics of the study — Fujitsu TofuD
// (Fugaku, a 6-D torus with hardware collectives) and Intel Omni-Path
// (Oakforest-PACS, a fat tree) — at the level application results depend on:
// point-to-point latency/bandwidth, and barrier and allreduce scaling with
// node count.
package interconnect

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// TopologyKind selects the hop-count model.
type TopologyKind int

const (
	// Torus6D is TofuD: diameter grows as the 6th root of node count.
	Torus6D TopologyKind = iota
	// FatTree is Omni-Path: diameter grows logarithmically.
	FatTree
)

// Fabric models one interconnect.
type Fabric struct {
	Name          string
	Kind          TopologyKind
	InjectLatency time.Duration // NIC injection + first switch
	PerHop        time.Duration
	Bandwidth     float64 // bytes per second per link
	// HWCollectives marks hardware-offloaded barrier/reduction support
	// (the Tofu barrier interface).
	HWCollectives bool
}

// TofuD returns the Fugaku interconnect parameters.
func TofuD() *Fabric {
	return &Fabric{
		Name: "TofuD", Kind: Torus6D,
		InjectLatency: 490 * time.Nanosecond, PerHop: 100 * time.Nanosecond,
		Bandwidth: 6.8e9, HWCollectives: true,
	}
}

// OmniPath returns the Oakforest-PACS interconnect parameters.
func OmniPath() *Fabric {
	return &Fabric{
		Name: "Omni-Path", Kind: FatTree,
		InjectLatency: 1 * time.Microsecond, PerHop: 150 * time.Nanosecond,
		Bandwidth: 12.5e9, HWCollectives: false,
	}
}

// MinLatency returns a strictly positive lower bound on the latency of any
// modeled communication between two distinct nodes: every point-to-point
// transfer, barrier stage, allreduce and halo exchange costs at least the NIC
// injection latency before the first byte can arrive anywhere else.
//
// This bound is the conservative-synchronization lookahead for sharded
// simulations (internal/shard): a cross-shard interaction initiated at
// simulated instant t cannot take effect on another node before
// t + MinLatency, so parallel shards may safely advance through a time
// window of that width without hearing from each other.
func (f *Fabric) MinLatency() time.Duration {
	return f.InjectLatency
}

// Hops returns the expected hop count between two random nodes among n.
func (f *Fabric) Hops(n int) int {
	if n <= 1 {
		return 0
	}
	switch f.Kind {
	case Torus6D:
		// Average distance in a balanced 6-D torus: (6/4) * n^(1/6).
		return int(math.Ceil(1.5 * math.Pow(float64(n), 1.0/6.0)))
	default:
		// Three-level fat tree up to a few thousand nodes, then deeper.
		return 2*int(math.Ceil(math.Log(float64(n))/math.Log(48))) + 1
	}
}

// ErrBadTransfer reports invalid transfer parameters.
var ErrBadTransfer = errors.New("interconnect: invalid transfer")

// PointToPoint returns the latency of transferring bytes between two random
// nodes in a job of n nodes.
func (f *Fabric) PointToPoint(bytes int64, n int) (time.Duration, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadTransfer, bytes)
	}
	wire := time.Duration(float64(bytes) / f.Bandwidth * 1e9)
	return f.InjectLatency + time.Duration(f.Hops(n))*f.PerHop + wire, nil
}

// Barrier returns the completion latency of an n-node barrier. Hardware
// collectives (Tofu) complete in near-constant time along the reduction
// tree; software barriers dismantle into log2(n) point-to-point stages.
func (f *Fabric) Barrier(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	stages := int(math.Ceil(math.Log2(float64(n))))
	if f.HWCollectives {
		return f.InjectLatency + time.Duration(stages)*f.PerHop*2
	}
	perStage := f.InjectLatency + time.Duration(f.Hops(n))*f.PerHop
	return time.Duration(stages) * perStage
}

// Allreduce returns the latency of an allreduce of bytes across n nodes
// (recursive doubling for small payloads, ring for large ones).
func (f *Fabric) Allreduce(bytes int64, n int) (time.Duration, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadTransfer, bytes)
	}
	if n <= 1 {
		return 0, nil
	}
	stages := int(math.Ceil(math.Log2(float64(n))))
	p2p, err := f.PointToPoint(bytes, n)
	if err != nil {
		return 0, err
	}
	if bytes <= 64<<10 {
		// Latency-bound recursive doubling.
		lat := time.Duration(stages) * p2p
		if f.HWCollectives && bytes <= 4<<10 {
			// Tofu barrier-network reductions for tiny payloads.
			lat = f.Barrier(n) + time.Duration(float64(bytes)/f.Bandwidth*1e9)
		}
		return lat, nil
	}
	// Bandwidth-bound ring: 2*(n-1)/n of the data crosses each link, but
	// pipelined; model as 2x wire time plus the latency stages.
	wire := time.Duration(2 * float64(bytes) / f.Bandwidth * 1e9)
	return wire + time.Duration(stages)*(f.InjectLatency+f.PerHop), nil
}

// HaloExchange returns the per-step latency of a nearest-neighbour exchange
// of bytes per face, the dominant communication of stencil/grid codes.
func (f *Fabric) HaloExchange(bytesPerFace int64, faces int, n int) (time.Duration, error) {
	if faces <= 0 {
		faces = 1
	}
	p2p, err := f.PointToPoint(bytesPerFace, n)
	if err != nil {
		return 0, err
	}
	// Neighbour faces proceed mostly in parallel; charge two serialized
	// rounds (send+receive) regardless of face count, plus wire time for
	// the extra faces sharing the NIC.
	wireAll := time.Duration(float64(bytesPerFace) * float64(faces-1) / f.Bandwidth * 1e9)
	return 2*p2p + wireAll, nil
}
