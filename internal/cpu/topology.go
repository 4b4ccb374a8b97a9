// Package cpu models the processor hardware attributes the study depends on:
// core/SMT/NUMA topology, translation lookaside buffers (including the ARM64
// contiguous bit and broadcast TLBI behaviour), inter-processor interrupts,
// performance-monitoring counters, the A64FX sector cache and the A64FX
// hardware barrier.
//
// Two presets correspond to the paper's platforms: the Intel Xeon Phi 7250
// (Knights Landing) of Oakforest-PACS and the Fujitsu A64FX of Fugaku
// (Table 1 of the paper).
package cpu

import (
	"fmt"
	"time"
)

// ISA identifies the instruction set architecture of a processor model.
type ISA string

// Supported ISAs.
const (
	X86_64  ISA = "x86_64"
	AArch64 ISA = "aarch64"
)

// CoreKind distinguishes application cores from system (assistant) cores.
type CoreKind int

// Core kinds. On A64FX the "assistant cores" are physically identical but
// reserved for OS activity; on KNL the distinction is purely administrative.
const (
	AppCore CoreKind = iota
	AssistantCore
)

func (k CoreKind) String() string {
	if k == AssistantCore {
		return "assistant"
	}
	return "app"
}

// Core describes a single physical core.
type Core struct {
	ID        int
	NUMA      int // NUMA domain (CMG on A64FX, quadrant/MCDRAM domain on KNL)
	Kind      CoreKind
	SMT       int   // number of hardware threads on this core
	ThreadIDs []int // logical CPU numbers of the threads
}

// Topology describes a processor socket as the OS models see it.
type Topology struct {
	Name           string
	ISA            ISA
	Cores          []Core
	NUMADomains    int
	AppNUMADomains []int // NUMA domains backing application memory
	SysNUMADomains []int // NUMA domains reserved for the system (virtual NUMA)

	// Frequency is the nominal clock used to convert cycles to time.
	Frequency float64 // Hz

	TLB TLBConfig

	// HasSectorCache reports availability of the A64FX cache partitioning
	// feature; HasHWBarrier the A64FX hardware barrier.
	HasSectorCache bool
	HasHWBarrier   bool

	// TLBIBroadcastPenalty is the stall suffered by *every other* core when
	// one core executes a broadcast TLB invalidation (inner-sharable TLBI).
	// The paper measured ~200 ns on A64FX (Sec. 4.2.2). Zero means the ISA
	// has no broadcast invalidation (x86 uses IPIs instead).
	TLBIBroadcastPenalty time.Duration

	// IPILatency is the end-to-end cost of delivering one inter-processor
	// interrupt and running a minimal handler.
	IPILatency time.Duration
}

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.Cores) }

// NumThreads returns the number of logical CPUs.
func (t *Topology) NumThreads() int {
	n := 0
	for i := range t.Cores {
		n += t.Cores[i].SMT
	}
	return n
}

// AppCores returns the IDs of application cores.
func (t *Topology) AppCores() []int {
	return t.coresOfKind(AppCore)
}

// AssistantCores returns the IDs of system/assistant cores.
func (t *Topology) AssistantCores() []int {
	return t.coresOfKind(AssistantCore)
}

func (t *Topology) coresOfKind(k CoreKind) []int {
	var ids []int
	for i := range t.Cores {
		if t.Cores[i].Kind == k {
			ids = append(ids, t.Cores[i].ID)
		}
	}
	return ids
}

// AppThreads returns the number of hardware threads on application cores.
func (t *Topology) AppThreads() int {
	n := 0
	for i := range t.Cores {
		if t.Cores[i].Kind == AppCore {
			n += t.Cores[i].SMT
		}
	}
	return n
}

// Validate checks internal consistency of the topology.
func (t *Topology) Validate() error {
	if len(t.Cores) == 0 {
		return fmt.Errorf("cpu: topology %q has no cores", t.Name)
	}
	if t.Frequency <= 0 {
		return fmt.Errorf("cpu: topology %q has non-positive frequency", t.Name)
	}
	seen := make(map[int]bool, len(t.Cores))
	for i := range t.Cores {
		c := &t.Cores[i]
		if seen[c.ID] {
			return fmt.Errorf("cpu: duplicate core id %d", c.ID)
		}
		seen[c.ID] = true
		if c.NUMA < 0 || c.NUMA >= t.NUMADomains {
			return fmt.Errorf("cpu: core %d in invalid NUMA domain %d", c.ID, c.NUMA)
		}
		if c.SMT < 1 {
			return fmt.Errorf("cpu: core %d has SMT %d", c.ID, c.SMT)
		}
		if len(c.ThreadIDs) != c.SMT {
			return fmt.Errorf("cpu: core %d thread list length %d != SMT %d", c.ID, len(c.ThreadIDs), c.SMT)
		}
	}
	return nil
}

// Cycles converts a cycle count to time at the nominal frequency.
func (t *Topology) Cycles(n float64) time.Duration {
	return time.Duration(n / t.Frequency * 1e9)
}

// KNL returns the Oakforest-PACS node processor: Intel Xeon Phi 7250,
// 68 cores with 4-way SMT (272 logical CPUs), 4 NUMA-visible domains in
// Quadrant-flat mode (DDR4 plus MCDRAM exposed separately; we model the two
// memory pools as domains 0..1 for DDR and 2..3 for MCDRAM-backed app use).
// There is no strict core partition on OFP: a designated group of logical
// CPUs is merely *recommended* for applications (Sec. 3.1); we mark the first
// core as the de-facto system core used by the recommendation.
func KNL() *Topology {
	t := &Topology{
		Name:        "Intel Xeon Phi 7250 (KNL)",
		ISA:         X86_64,
		NUMADomains: 2,
		// OFP has no virtual-NUMA split: system and applications share.
		AppNUMADomains: []int{0, 1},
		SysNUMADomains: nil,
		Frequency:      1.4e9,
		TLB: TLBConfig{
			L1Entries:     64,
			L2Entries:     64, // "L1: 64, L2: 64" last-level entries (Table 1)
			ContiguousBit: false,
			PageWalk:      140 * time.Nanosecond, // slow KNL page walker
		},
		HasSectorCache:       false,
		HasHWBarrier:         false,
		TLBIBroadcastPenalty: 0, // x86: shootdown via IPI
		IPILatency:           4 * time.Microsecond,
	}
	logical := 0
	for c := 0; c < 68; c++ {
		core := Core{ID: c, NUMA: c % 2, Kind: AppCore, SMT: 4}
		if c < 4 {
			// First tile: where OFP convention steers system activity.
			core.Kind = AssistantCore
		}
		for s := 0; s < 4; s++ {
			core.ThreadIDs = append(core.ThreadIDs, logical)
			logical++
		}
		t.Cores = append(t.Cores, core)
	}
	return t
}

// A64FX returns the Fugaku node processor: 48 application cores in four CMGs
// (Core Memory Groups, the NUMA domains) plus assistant cores dedicated to
// the OS. Most Fugaku nodes have 50 cores (2 assistant); some have 52
// (4 assistant) — Sec. 3.2. TLB: 16 L1 entries, 1,024 L2 entries (Table 1).
func A64FX(assistantCores int) *Topology {
	if assistantCores != 2 && assistantCores != 4 {
		assistantCores = 2
	}
	t := &Topology{
		Name:        "Fujitsu A64FX",
		ISA:         AArch64,
		NUMADomains: 5, // 4 CMGs + 1 virtual system NUMA node
		// Virtual NUMA nodes (Sec. 4.1.2): app memory in domains 0-3,
		// system memory in domain 4.
		AppNUMADomains: []int{0, 1, 2, 3},
		SysNUMADomains: []int{4},
		Frequency:      2.0e9,
		TLB: TLBConfig{
			L1Entries:     16,
			L2Entries:     1024,
			ContiguousBit: true,
			PageWalk:      90 * time.Nanosecond,
		},
		HasSectorCache:       true,
		HasHWBarrier:         true,
		TLBIBroadcastPenalty: 200 * time.Nanosecond, // measured delay per TLBI (Sec. 4.2.2)
		IPILatency:           2 * time.Microsecond,
	}
	id := 0
	for cmg := 0; cmg < 4; cmg++ {
		for c := 0; c < 12; c++ {
			t.Cores = append(t.Cores, Core{
				ID: id, NUMA: cmg, Kind: AppCore, SMT: 1, ThreadIDs: []int{id},
			})
			id++
		}
	}
	for a := 0; a < assistantCores; a++ {
		t.Cores = append(t.Cores, Core{
			ID: id, NUMA: 4, Kind: AssistantCore, SMT: 1, ThreadIDs: []int{id},
		})
		id++
	}
	return t
}
