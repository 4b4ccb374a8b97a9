package cpu

import (
	"fmt"
	"time"
)

// PMU models a core's performance monitoring unit: the counters the Fujitsu
// TCS middleware collects (Sec. 4.2.1) plus user/kernel instruction and time
// split used for noise attribution (Sec. 4.2.2).
type PMU struct {
	Cycles      uint64
	InstrUser   uint64
	InstrKernel uint64
	FPOps       uint64
	MemReads    uint64
	MemWrites   uint64
	SleepCycles uint64
	TimeUser    time.Duration
	TimeKernel  time.Duration
	ReadsViaIPI uint64 // times this PMU was sampled through a cross-core IPI
}

// Snapshot is a copy of the counter values at a point in time.
type Snapshot struct {
	Cycles, InstrUser, InstrKernel, FPOps uint64
	TimeUser, TimeKernel                  time.Duration
}

// Read returns a snapshot. remote indicates the read was initiated from
// another core, which on the modelled systems requires an IPI into this core
// (the interference TCS caused until the per-job stop command existed).
func (p *PMU) Read(remote bool) Snapshot {
	if remote {
		p.ReadsViaIPI++
	}
	return Snapshot{
		Cycles: p.Cycles, InstrUser: p.InstrUser, InstrKernel: p.InstrKernel,
		FPOps: p.FPOps, TimeUser: p.TimeUser, TimeKernel: p.TimeKernel,
	}
}

// AccountUser charges user-mode execution to the counters.
func (p *PMU) AccountUser(d time.Duration, instr uint64) {
	p.TimeUser += d
	p.InstrUser += instr
	p.Cycles += instr // 1 IPC nominal; precise IPC is irrelevant to the study
}

// AccountKernel charges kernel-mode execution to the counters.
func (p *PMU) AccountKernel(d time.Duration, instr uint64) {
	p.TimeKernel += d
	p.InstrKernel += instr
	p.Cycles += instr
}

// Classify attributes an observed execution-time increase between two
// snapshots, following the methodology of Sec. 4.2.2: more kernel
// instructions means OS processing; unchanged instruction counts with longer
// time means hardware sharing/contention.
func Classify(before, after Snapshot, wallIncrease time.Duration) string {
	switch {
	case after.InstrKernel > before.InstrKernel:
		return "os-processing"
	case wallIncrease > 0:
		return "hw-contention"
	default:
		return "none"
	}
}

// SectorCache models the A64FX cache-way partitioning feature (Sec. 4.2):
// cache blocks are split into a system segment and an application segment so
// OS activity on assistant cores cannot evict application data.
type SectorCache struct {
	TotalWays int
	SysWays   int
	enabled   bool
}

// NewSectorCache returns a sector cache over totalWays L2 ways.
func NewSectorCache(totalWays int) *SectorCache {
	return &SectorCache{TotalWays: totalWays}
}

// Partition assigns sysWays ways to the system segment and enables the
// feature. It returns an error if the split is invalid.
func (s *SectorCache) Partition(sysWays int) error {
	if sysWays < 1 || sysWays >= s.TotalWays {
		return fmt.Errorf("cpu: invalid sector-cache split %d/%d", sysWays, s.TotalWays)
	}
	s.SysWays = sysWays
	s.enabled = true
	return nil
}

// AppInterferenceFactor returns the multiplicative slowdown application
// memory phases suffer from concurrent OS cache pollution. With partitioning
// enabled the OS cannot touch application ways and the factor is 1.
func (s *SectorCache) AppInterferenceFactor(osActive bool) float64 {
	if !osActive {
		return 1
	}
	if s.enabled {
		return 1
	}
	// Unpartitioned: OS streaming through the LLC costs the application a
	// small but persistent fraction of its hit rate.
	return 1.02
}

// HWBarrier models the A64FX intra-node hardware barrier (Sec. 4.1.5), which
// synchronizes threads/processes within a node far faster than memory-based
// barriers.
type HWBarrier struct {
	Available bool
}

// Latency returns the completion time of an intra-node barrier across n
// participants. The hardware barrier is nearly flat in n; the software
// fallback grows logarithmically with a much larger constant.
func (b HWBarrier) Latency(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	if b.Available {
		return 200 * time.Nanosecond
	}
	lg := 0
	for v := n - 1; v > 0; v >>= 1 {
		lg++
	}
	return time.Duration(lg) * 500 * time.Nanosecond
}
