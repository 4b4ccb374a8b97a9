// Package linux models the Linux environments of the two platforms: the
// moderately tuned CentOS 7 stack of Oakforest-PACS and the heavily tuned
// RHEL 8 stack of Fugaku described in Section 4 of the paper. The model
// covers the scheduler-visible noise sources (daemons, kworkers, blk-mq
// workers, IRQs, timer ticks, sar, TCS PMU collection, broadcast TLB
// invalidations), the cgroup-based CPU/memory isolation, large-page policy
// (THP vs. hugeTLBfs with overcommit), and the memory-management cost model
// applications observe (page faults, heap churn, TLB shootdowns).
package linux

import (
	"mkos/internal/cpu"
	"mkos/internal/mem"
)

// LargePagePolicy selects how application memory is backed (Sec. 4.1.3).
type LargePagePolicy int

const (
	// NoLargePages backs everything with base pages.
	NoLargePages LargePagePolicy = iota
	// THP enables transparent huge pages: 2 MiB pages assembled
	// opportunistically by khugepaged, vulnerable to fragmentation.
	THP
	// HugeTLBOvercommit is Fugaku's configuration: hugeTLBfs with no boot
	// pool, surplus 2 MiB contiguous-bit pages from the buddy allocator.
	HugeTLBOvercommit
	// HugeTLBReserved reserves a boot-time pool (the configuration Fugaku
	// rejected because it starves small-allocation workloads).
	HugeTLBReserved
)

func (p LargePagePolicy) String() string {
	switch p {
	case THP:
		return "thp"
	case HugeTLBOvercommit:
		return "hugetlbfs-overcommit"
	case HugeTLBReserved:
		return "hugetlbfs-reserved"
	default:
		return "none"
	}
}

// Countermeasures are the individually evaluable noise-elimination
// techniques of Sec. 4.2 / Table 2.
type Countermeasures struct {
	// BindDaemons confines OS daemons to assistant cores via cgroups.
	BindDaemons bool
	// BindKworkers pins unbound kworker kernel threads to assistant cores
	// through their sysfs CPU-affinity interface.
	BindKworkers bool
	// BindBlkMQ forces blk-mq completion workers to assistant cores by
	// overriding struct blk_mq_hw_ctx.cpumask.
	BindBlkMQ bool
	// StopPMUReads disables the periodic TCS PMU collection (the per-job
	// stop command of Sec. 4.2.1).
	StopPMUReads bool
	// SuppressGlobalTLBI applies the RHEL 8.2 patch: single-CPU processes
	// flush locally instead of broadcasting TLBI to the inner-sharable
	// domain (Sec. 4.2.2).
	SuppressGlobalTLBI bool
}

// AllCountermeasures returns the fully tuned configuration.
func AllCountermeasures() Countermeasures {
	return Countermeasures{
		BindDaemons: true, BindKworkers: true, BindBlkMQ: true,
		StopPMUReads: true, SuppressGlobalTLBI: true,
	}
}

// Tuning captures a platform's Linux runtime settings (Table 1 rows).
type Tuning struct {
	Name string

	// NohzFull disables the periodic timer tick on application cores.
	NohzFull bool
	// CPUIsolation uses cgroup cpusets to separate system and application
	// core partitions. False on OFP (the partition is only a convention).
	CPUIsolation bool
	// IRQToAssistant steers device IRQs to assistant cores; false means
	// irqbalance spreads them over the whole chip (OFP).
	IRQToAssistant bool
	// VirtualNUMA exposes separate system/application physical memory
	// domains (Sec. 4.1.2). Fugaku only.
	VirtualNUMA bool
	// SectorCache partitions L2 ways between system and application.
	SectorCache bool
	// SarEnabled keeps the sar activity monitor running (required for
	// operations on Fugaku; the main residual noise source).
	SarEnabled bool

	LargePage LargePagePolicy
	Counter   Countermeasures
}

// FugakuTuning returns the highly tuned RHEL 8 configuration of Sec. 4.
func FugakuTuning() Tuning {
	return Tuning{
		Name:           "fugaku-linux",
		NohzFull:       true,
		CPUIsolation:   true,
		IRQToAssistant: true,
		VirtualNUMA:    true,
		SectorCache:    true,
		SarEnabled:     true,
		LargePage:      HugeTLBOvercommit,
		Counter:        AllCountermeasures(),
	}
}

// OFPTuning returns the moderately tuned CentOS 7 configuration of Sec. 3.1:
// nohz_full on application cores and THP, but no cgroup isolation, no IRQ
// steering, no virtual NUMA, and none of the Fugaku countermeasures.
func OFPTuning() Tuning {
	return Tuning{
		Name:       "ofp-linux",
		NohzFull:   true,
		SarEnabled: true,
		LargePage:  THP,
	}
}

// MemoryLayoutFor builds the physical memory layout for a topology under
// this tuning. With virtual NUMA, a system slice is carved out as its own
// domain; otherwise all memory is application-reachable.
func (t Tuning) MemoryLayoutFor(topo *cpu.Topology, totalBytes int64) mem.MemoryLayout {
	layout := mem.MemoryLayout{BasePage: 64 << 10, MaxOrder: 13} // 512 MiB max block
	if topo.ISA == cpu.X86_64 {
		layout.BasePage = 4 << 10
		layout.MaxOrder = 10 // 4 MiB max block on x86 buddy
	}
	appDomains := len(topo.AppNUMADomains)
	if appDomains == 0 {
		appDomains = 1
	}
	if t.VirtualNUMA && len(topo.SysNUMADomains) > 0 {
		sysBytes := totalBytes / 16 // firmware-carved system slice
		appBytes := totalBytes - sysBytes
		for i := 0; i < appDomains; i++ {
			layout.AppNodes = append(layout.AppNodes, appBytes/int64(appDomains))
		}
		for range topo.SysNUMADomains {
			layout.SysNodes = append(layout.SysNodes, sysBytes/int64(len(topo.SysNUMADomains)))
		}
	} else if topo.ISA == cpu.X86_64 {
		// Quadrant flat mode: DDR4 and MCDRAM appear as separate domains
		// (Sec. 6.1). 16 GiB of the node total is the fast tier.
		fast := int64(16) << 30
		if fast > totalBytes/2 {
			fast = totalBytes / 2
		}
		ddr := totalBytes - fast
		for i := 0; i < appDomains; i++ {
			layout.AppNodes = append(layout.AppNodes, ddr/int64(appDomains))
		}
		layout.FastAppNodes = append(layout.FastAppNodes, fast)
	} else {
		for i := 0; i < appDomains; i++ {
			layout.AppNodes = append(layout.AppNodes, totalBytes/int64(appDomains))
		}
	}
	return layout
}
