package cpu

import (
	"math"
	"time"
)

// TLBConfig describes a processor's translation caches.
type TLBConfig struct {
	L1Entries int
	L2Entries int
	// ContiguousBit reports support for the ARM64 page-table contiguous bit,
	// which lets one TLB entry cover 32 physically contiguous pages
	// (Sec. 4.1.3).
	ContiguousBit bool
	// PageWalk is the cost of one hardware page-table walk on a last-level
	// TLB miss.
	PageWalk time.Duration
}

// Coverage returns the bytes of virtual address space the last-level TLB can
// map with the given effective page size.
func (c TLBConfig) Coverage(pageSize int64) int64 {
	return int64(c.L2Entries) * pageSize
}

// MissRatio estimates the steady-state last-level TLB misses per memory
// access for a workload with workingSet bytes and the given effective page
// size. When the working set fits in TLB coverage the miss ratio is 0.
// Beyond coverage, two effects compose: the probability that an access falls
// outside the cached translations (softened by a square root because real
// solvers do not touch pages uniformly at random), and spatial locality —
// consecutive accesses land on the same page, so misses per access shrink
// proportionally with page size. The locality term is normalized to a 4 KiB
// reference page, which is what gives large pages their benefit (Sec. 4.1.3).
func (c TLBConfig) MissRatio(workingSet, pageSize int64) float64 {
	if workingSet <= 0 || pageSize <= 0 {
		return 0
	}
	cov := c.Coverage(pageSize)
	if cov <= 0 {
		return 1
	}
	if workingSet <= cov {
		return 0
	}
	uncovered := 1 - float64(cov)/float64(workingSet)
	const refPage = 4096
	mr := math.Sqrt(uncovered) * refPage / float64(pageSize)
	return math.Min(mr, 1)
}

// TranslationOverhead estimates the fractional slowdown of a memory-bound
// phase due to TLB misses: missRatio × walkCost / accessCost, where
// accessPeriod is the average interval between distinct-page accesses.
func (c TLBConfig) TranslationOverhead(workingSet, pageSize int64, accessPeriod time.Duration) float64 {
	if accessPeriod <= 0 {
		return 0
	}
	mr := c.MissRatio(workingSet, pageSize)
	return mr * float64(c.PageWalk) / float64(accessPeriod)
}

// ShootdownMethod selects how the OS invalidates remote TLB entries.
type ShootdownMethod int

const (
	// ShootdownBroadcast uses the ARM64 inner-sharable TLBI instruction: one
	// instruction invalidates on every core, stalling each ~200 ns on A64FX.
	ShootdownBroadcast ShootdownMethod = iota
	// ShootdownIPI sends explicit IPIs to target cores and flushes locally on
	// each (the x86_64/SPARC64 approach, and the all-software ARM64 option
	// the paper notes is significantly slower than the hardware broadcast).
	ShootdownIPI
	// ShootdownLocalOnly flushes only the initiating core. Valid when every
	// thread of the process runs on that single core — the RHEL 8.2 patch the
	// paper upstreamed applies exactly this optimization (Sec. 4.2.2).
	ShootdownLocalOnly
)

func (m ShootdownMethod) String() string {
	switch m {
	case ShootdownBroadcast:
		return "broadcast-tlbi"
	case ShootdownIPI:
		return "ipi"
	case ShootdownLocalOnly:
		return "local-only"
	default:
		return "unknown"
	}
}

// ShootdownCost returns the initiating core's cost and the per-remote-core
// stall of one TLB invalidation using method m on topology t.
func ShootdownCost(t *Topology, m ShootdownMethod) (initiator time.Duration, perRemote time.Duration) {
	const localFlush = 20 * time.Nanosecond
	switch m {
	case ShootdownBroadcast:
		if t.TLBIBroadcastPenalty == 0 {
			// ISA without broadcast invalidation degenerates to IPI.
			return ShootdownCost(t, ShootdownIPI)
		}
		return localFlush, t.TLBIBroadcastPenalty
	case ShootdownIPI:
		// Initiator pays one IPI round per remote core batch; each remote
		// pays interrupt entry + local flush. Software multi-core shootdown
		// is much slower than the A64FX hardware broadcast (Sec. 4.2.2).
		return t.IPILatency, t.IPILatency + localFlush
	case ShootdownLocalOnly:
		return localFlush, 0
	default:
		return localFlush, 0
	}
}
