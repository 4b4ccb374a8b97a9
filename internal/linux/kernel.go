package linux

import (
	"fmt"
	"time"

	"mkos/internal/cpu"
	"mkos/internal/kernel"
	"mkos/internal/mem"
	"mkos/internal/telemetry"
)

// Kernel is one node's Linux instance: topology, tuning, cgroup tree, system
// tasks, IRQ table, physical memory and the hugeTLBfs facility.
type Kernel struct {
	Topo   *cpu.Topology
	Tune   Tuning
	Mem    *mem.PhysMemory
	Huge   *mem.HugeTLBfs
	Root   *Cgroup
	System *Cgroup // cgroup for system processes
	App    *Cgroup // cgroup (or container) for application processes

	Daemons  []*kernel.Task
	Kworkers []*kernel.Task
	BlkMQ    []*kernel.Task
	Sar      *kernel.Task
	IRQs     []*kernel.IRQ

	// Sink receives the kernel's telemetry, including the noise counters
	// of the profiles it derives and of a McKernel booted beside it.
	Sink *telemetry.Sink

	nextTaskID int
}

// DefaultDaemons is the set of user-space services a RHEL/CentOS compute
// node runs; each contributes wake-up noise when allowed on app cores.
var DefaultDaemons = []string{
	"systemd", "systemd-journald", "systemd-logind", "dbus-daemon",
	"sshd", "chronyd", "crond", "rsyslogd", "irqbalance", "tuned",
	"NetworkManager", "polkitd",
}

// NewKernel assembles a Linux node model. memBytes is the node's physical
// memory (96+16 GiB on OFP, 32 GiB on Fugaku).
func NewKernel(topo *cpu.Topology, tune Tuning, memBytes int64) (*Kernel, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	pm, err := mem.NewPhysMemory(tune.MemoryLayoutFor(topo, memBytes))
	if err != nil {
		return nil, err
	}
	k := &Kernel{Topo: topo, Tune: tune, Mem: pm}

	allCPUs := kernel.FullMask(topo.NumCores())
	allMems := make([]int, len(pm.Nodes))
	for i := range pm.Nodes {
		allMems[i] = i
	}
	k.Root = NewRootCgroup(allCPUs, allMems)

	appMask := kernel.NewCPUMask(topo.AppCores()...)
	sysMask := kernel.NewCPUMask(topo.AssistantCores()...)
	appMems, sysMems := allMems, allMems
	if tune.VirtualNUMA {
		appMems, sysMems = nil, nil
		for _, n := range pm.AppNodes() {
			appMems = append(appMems, n.ID)
		}
		for _, n := range pm.SysNodes() {
			sysMems = append(sysMems, n.ID)
		}
	}

	if tune.CPUIsolation {
		if k.System, err = k.Root.NewChild("system", sysMask, sysMems); err != nil {
			return nil, err
		}
		if k.App, err = k.Root.NewChild("app", appMask, appMems); err != nil {
			return nil, err
		}
	} else {
		// OFP style: no partition, everything lives in the root group.
		k.System, k.App = k.Root, k.Root
	}

	// hugeTLBfs per policy. The pool draws from the first app domain.
	switch tune.LargePage {
	case HugeTLBOvercommit:
		k.Huge, err = mem.NewHugeTLBfs(mem.HugeTLBConfig{Page: mem.Page2M}, pm.AppNodes()[0].Buddy)
	case HugeTLBReserved:
		pool := pm.AppNodes()[0].Buddy.TotalBytes() / 2 / mem.Page2M.Bytes()
		k.Huge, err = mem.NewHugeTLBfs(mem.HugeTLBConfig{
			Page: mem.Page2M, ReservedPool: pool,
		}, pm.AppNodes()[0].Buddy)
	}
	if err != nil {
		return nil, err
	}
	k.spawnSystemTasks(appMask, sysMask)
	k.setupIRQs(appMask, sysMask)
	return k, nil
}

func (k *Kernel) newTask(name string, kind kernel.TaskKind, affinity kernel.CPUMask) *kernel.Task {
	k.nextTaskID++
	return kernel.NewTask(k.nextTaskID, name, kind, affinity)
}

func (k *Kernel) spawnSystemTasks(appMask, sysMask kernel.CPUMask) {
	all := appMask.Union(sysMask)
	daemonMask := all
	if k.Tune.Counter.BindDaemons && k.Tune.CPUIsolation {
		daemonMask = sysMask
	}
	for _, name := range DefaultDaemons {
		d := k.newTask(name, kernel.DaemonTask, daemonMask)
		k.Daemons = append(k.Daemons, d)
		if k.Tune.CPUIsolation && k.Tune.Counter.BindDaemons {
			_ = k.System.Attach(d)
		} else {
			_ = k.Root.Attach(d)
		}
	}

	// One kworker pool per core plus unbound workers. Unbound kworkers can
	// run anywhere unless their sysfs affinity is overridden.
	kwMask := all
	if k.Tune.Counter.BindKworkers {
		kwMask = sysMask
	}
	if kwMask.Empty() {
		kwMask = all
	}
	for i := 0; i < 4; i++ {
		k.Kworkers = append(k.Kworkers, k.newTask(fmt.Sprintf("kworker/u%d", i), kernel.KworkerTask, kwMask))
	}

	// blk-mq completion workers: bound per hardware context; their cpumask
	// lives in struct blk_mq_hw_ctx and must be overridden explicitly
	// (Sec. 4.2.1).
	blkMask := all
	if k.Tune.Counter.BindBlkMQ {
		blkMask = sysMask
	}
	if blkMask.Empty() {
		blkMask = all
	}
	for i := 0; i < 2; i++ {
		k.BlkMQ = append(k.BlkMQ, k.newTask(fmt.Sprintf("blk-mq/%d", i), kernel.BlkMQTask, blkMask))
	}

	if k.Tune.SarEnabled {
		sarMask := all
		if k.Tune.CPUIsolation {
			sarMask = sysMask
		}
		k.Sar = k.newTask("sar", kernel.MonitorTask, sarMask)
	}
}

func (k *Kernel) setupIRQs(appMask, sysMask kernel.CPUMask) {
	target := appMask.Union(sysMask)
	if k.Tune.IRQToAssistant && !sysMask.Empty() {
		target = sysMask
	}
	names := []string{"timer", "nic-rx", "nic-tx", "nvme", "ipi"}
	for i, n := range names {
		irq := &kernel.IRQ{Number: 16 + i, Name: n}
		_ = irq.Route(target)
		k.IRQs = append(k.IRQs, irq)
	}
}

// AppCores returns the cores applications run on.
func (k *Kernel) AppCores() []int { return k.Topo.AppCores() }

// Name identifies the configuration.
func (k *Kernel) Name() string { return k.Tune.Name }

// --- Cost model -----------------------------------------------------------

// SyscallCosts returns the in-kernel service time table for this Linux
// configuration. Values are representative microbenchmark figures for the
// modelled kernels (getpid-class ~0.3 µs, mmap-class single-digit µs).
func (k *Kernel) SyscallCosts() kernel.CostTable {
	scale := 1.0
	if k.Topo.ISA == cpu.X86_64 {
		// KNL cores are slow in-order cores; kernel paths cost more.
		scale = 2.5
	}
	d := func(base time.Duration) time.Duration {
		return time.Duration(float64(base) * scale)
	}
	return kernel.CostTable{
		kernel.SysGetpid:        d(300 * time.Nanosecond),
		kernel.SysMmap:          d(6 * time.Microsecond),
		kernel.SysMunmap:        d(9 * time.Microsecond),
		kernel.SysBrk:           d(2 * time.Microsecond),
		kernel.SysMadvise:       d(3 * time.Microsecond),
		kernel.SysFutex:         d(1500 * time.Nanosecond),
		kernel.SysClone:         d(25 * time.Microsecond),
		kernel.SysExit:          d(20 * time.Microsecond),
		kernel.SysSignal:        d(1 * time.Microsecond),
		kernel.SysOpen:          d(4 * time.Microsecond),
		kernel.SysClose:         d(1 * time.Microsecond),
		kernel.SysRead:          d(2500 * time.Nanosecond),
		kernel.SysWrite:         d(2500 * time.Nanosecond),
		kernel.SysIoctl:         d(3500 * time.Nanosecond),
		kernel.SysStat:          d(2 * time.Microsecond),
		kernel.SysSocket:        d(5 * time.Microsecond),
		kernel.SysPerfEventOpen: d(15 * time.Microsecond),
	}
}

// PageFaultCost is the cost of one minor fault populating a page of the
// given size, including allocation, zeroing amortization and page-table
// work.
func (k *Kernel) PageFaultCost(page mem.PageSize) time.Duration {
	base := 1500 * time.Nanosecond
	if k.Topo.ISA == cpu.X86_64 {
		base = 3500 * time.Nanosecond
	}
	switch {
	case page >= mem.Page512M:
		return base + 40*time.Microsecond // zeroing dominates
	case page >= mem.Page2M:
		return base + 4*time.Microsecond
	case page >= mem.Page64K:
		return base + 400*time.Nanosecond
	default:
		return base
	}
}

// EffectiveAppPage returns the page size backing a well-formed application
// region of reqBytes under the tuning's large-page policy, together with
// the fraction of the region actually getting large pages. THP coverage
// degrades with buddy fragmentation (compaction failures); hugeTLBfs
// contiguous-bit pages survive because Fugaku's allocations are 2 MiB
// aligned by construction.
func (k *Kernel) EffectiveAppPage(reqBytes int64) (mem.PageSize, float64) {
	basePage := mem.PageSize(k.Mem.AppNodes()[0].Buddy.BasePage())
	switch k.Tune.LargePage {
	case THP:
		frag := k.Mem.AppFragmentation(orderFor(mem.Page2M, basePage))
		coverage := 1 - frag
		if coverage < 0 {
			coverage = 0
		}
		return mem.Page2M, coverage
	case HugeTLBOvercommit, HugeTLBReserved:
		return mem.Page2M, 1 // contiguous-bit 2 MiB pages (Sec. 4.1.3)
	default:
		return basePage, 1
	}
}

func orderFor(page, basePage mem.PageSize) int {
	order := 0
	for p := basePage; p < page; p <<= 1 {
		order++
	}
	return order
}

// TranslationOverhead is the fractional compute slowdown from TLB misses for
// a working set under this configuration's paging policy.
func (k *Kernel) TranslationOverhead(workingSet int64, accessPeriod time.Duration) float64 {
	page, coverage := k.EffectiveAppPage(workingSet)
	basePage := mem.PageSize(k.Mem.AppNodes()[0].Buddy.BasePage())
	large := k.Topo.TLB.TranslationOverhead(workingSet, page.Bytes(), accessPeriod)
	small := k.Topo.TLB.TranslationOverhead(workingSet, basePage.Bytes(), accessPeriod)
	return coverage*large + (1-coverage)*small
}

// glibcTrimChunk is the granularity at which the modelled glibc returns
// freed memory to the kernel per release call (M_TRIM / large-mmap policy).
const glibcTrimChunk = 8 << 20

// HeapChurnCost is the per-step memory-management cost of an application
// that performs calls allocate/free pairs moving churnBytes through glibc
// each step. Linux returns freed large blocks to the kernel (munmap or
// madvise(MADV_DONTNEED)), so the next step re-faults the pages;
// multi-threaded frees also trigger TLB shootdowns. Crucially, the per-call
// component (syscall + shootdown initiation) does not shrink under strong
// scaling while the compute does — the Linux heap-management behaviour the
// paper identifies as the main source of LULESH's ≈2X slowdown
// (Sec. 6.4 / [14]).
func (k *Kernel) HeapChurnCost(churnBytes int64, calls, threads int) time.Duration {
	if churnBytes <= 0 && calls <= 0 {
		return 0
	}
	if calls < 1 {
		calls = int(churnBytes / glibcTrimChunk)
		if calls < 1 {
			calls = 1
		}
	}
	// glibc only hands back what its trim policy releases; stable large
	// arenas are reused without kernel round trips.
	trimmed := churnBytes
	if limit := int64(calls) * glibcTrimChunk; trimmed > limit {
		trimmed = limit
	}
	var cost time.Duration
	if trimmed > 0 {
		page, coverage := k.EffectiveAppPage(trimmed)
		basePage := mem.PageSize(k.Mem.AppNodes()[0].Buddy.BasePage())
		largePages := page.PagesFor(int64(float64(trimmed) * coverage))
		smallPages := basePage.PagesFor(int64(float64(trimmed) * (1 - coverage)))
		cost += time.Duration(largePages)*k.PageFaultCost(page) +
			time.Duration(smallPages)*k.PageFaultCost(basePage)
	}
	// munmap path + shootdowns when threads span cores.
	costs := k.SyscallCosts()
	cost += time.Duration(calls) * costs.Cost(kernel.SysMunmap)
	if threads > 1 {
		method := cpu.ShootdownBroadcast
		if k.Topo.TLBIBroadcastPenalty == 0 {
			method = cpu.ShootdownIPI
		}
		initiator, _ := cpu.ShootdownCost(k.Topo, method)
		cost += time.Duration(calls) * initiator
	}
	return cost
}

// ProcessExitFlushes returns how many consecutive TLB flush operations a
// process teardown with vmaCount mapped areas issues — the "hundreds to
// thousands of consecutive TLB flushes" of Sec. 4.2.2.
func (k *Kernel) ProcessExitFlushes(vmaCount int) int {
	if vmaCount < 1 {
		vmaCount = 1
	}
	return vmaCount * 8 // page-table teardown walks each VMA in chunks
}

// RDMARegistrationCost is the cost of registering one memory region (STAG)
// with the interconnect driver: an ioctl into the vendor driver (Sec. 5.1).
func (k *Kernel) RDMARegistrationCost(bytes int64) time.Duration {
	costs := k.SyscallCosts()
	pin := time.Duration(bytes/(1<<20)) * 300 * time.Nanosecond // page pinning
	return costs.Cost(kernel.SysIoctl) + 2*time.Microsecond + pin
}

// BarrierLatency is the intra-node synchronization cost across n threads.
// Fugaku's runtime uses the hardware barrier; OFP's Intel OpenMP uses a
// software tree barrier.
func (k *Kernel) BarrierLatency(n int) time.Duration {
	hb := cpu.HWBarrier{Available: k.Topo.HasHWBarrier}
	return hb.Latency(n)
}

// CacheInterferenceFactor is the multiplicative slowdown of app memory
// phases caused by OS cache pollution, removed by the sector cache.
func (k *Kernel) CacheInterferenceFactor() float64 {
	sc := cpu.NewSectorCache(16)
	if k.Tune.SectorCache && k.Topo.HasSectorCache {
		_ = sc.Partition(2)
	}
	return sc.AppInterferenceFactor(true)
}
