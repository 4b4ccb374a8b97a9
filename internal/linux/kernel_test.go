package linux

import (
	"testing"
	"time"

	"mkos/internal/cpu"
	"mkos/internal/kernel"
	"mkos/internal/mem"
)

func newFugakuKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel(cpu.A64FX(2), FugakuTuning(), 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newOFPKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel(cpu.KNL(), OFPTuning(), 112<<30)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestTuningPresets(t *testing.T) {
	f := FugakuTuning()
	if !f.NohzFull || !f.CPUIsolation || !f.IRQToAssistant || !f.VirtualNUMA ||
		!f.SectorCache || !f.SarEnabled {
		t.Fatalf("Fugaku tuning incomplete: %+v", f)
	}
	if f.LargePage != HugeTLBOvercommit {
		t.Fatal("Fugaku must use hugeTLBfs overcommit (Sec. 4.1.3)")
	}
	cm := f.Counter
	if !cm.BindDaemons || !cm.BindKworkers || !cm.BindBlkMQ || !cm.StopPMUReads || !cm.SuppressGlobalTLBI {
		t.Fatal("Fugaku must enable all countermeasures")
	}

	o := OFPTuning()
	if !o.NohzFull {
		t.Fatal("OFP has nohz_full on app cores (Table 1)")
	}
	if o.CPUIsolation || o.IRQToAssistant || o.VirtualNUMA {
		t.Fatal("OFP has no cgroup isolation / IRQ steering / virtual NUMA (Table 1)")
	}
	if o.LargePage != THP {
		t.Fatal("OFP uses THP (Table 1)")
	}
}

func TestLargePagePolicyString(t *testing.T) {
	for p, want := range map[LargePagePolicy]string{
		NoLargePages: "none", THP: "thp",
		HugeTLBOvercommit: "hugetlbfs-overcommit", HugeTLBReserved: "hugetlbfs-reserved",
	} {
		if p.String() != want {
			t.Fatalf("%d String = %s", p, p.String())
		}
	}
}

func TestFugakuKernelAssembly(t *testing.T) {
	k := newFugakuKernel(t)
	if k.Name() != "fugaku-linux" {
		t.Fatalf("Name = %s", k.Name())
	}
	// Virtual NUMA: 4 app domains + 1 system domain.
	if got := len(k.Mem.AppNodes()); got != 4 {
		t.Fatalf("app NUMA domains = %d, want 4 CMGs", got)
	}
	if got := len(k.Mem.SysNodes()); got != 1 {
		t.Fatalf("system NUMA domains = %d, want 1", got)
	}
	// Daemons confined to assistant cores.
	sysMask := kernel.NewCPUMask(k.Topo.AssistantCores()...)
	for _, d := range k.Daemons {
		if !d.Affinity.Equal(sysMask) {
			t.Fatalf("daemon %s affinity %s, want %s", d.Name, d.Affinity, sysMask)
		}
	}
	// Kworkers and blk-mq bound to assistant cores.
	for _, kw := range k.Kworkers {
		if !kw.Affinity.Equal(sysMask) {
			t.Fatalf("kworker affinity %s", kw.Affinity)
		}
	}
	for _, b := range k.BlkMQ {
		if !b.Affinity.Equal(sysMask) {
			t.Fatalf("blk-mq affinity %s", b.Affinity)
		}
	}
	// IRQs routed to assistant cores.
	for _, irq := range k.IRQs {
		if !irq.Affinity.Equal(sysMask) {
			t.Fatalf("IRQ %s affinity %s", irq.Name, irq.Affinity)
		}
	}
	// sar exists (required on Fugaku) but runs on assistant cores.
	if k.Sar == nil || !k.Sar.Affinity.Equal(sysMask) {
		t.Fatal("sar must exist and be bound to assistant cores")
	}
	// hugeTLBfs overcommit.
	if k.Huge == nil {
		t.Fatal("Fugaku kernel must have hugeTLBfs")
	}
}

func TestOFPKernelAssembly(t *testing.T) {
	k := newOFPKernel(t)
	// No partition: daemons may roam the whole chip.
	all := kernel.FullMask(k.Topo.NumCores())
	for _, d := range k.Daemons {
		if !d.Affinity.Equal(all) {
			t.Fatalf("OFP daemon %s should be unbound, got %s", d.Name, d.Affinity)
		}
	}
	// IRQs balanced across the entire chip (Sec. 3.1).
	for _, irq := range k.IRQs {
		if !irq.Affinity.Equal(all) {
			t.Fatalf("OFP IRQ %s should span the chip", irq.Name)
		}
	}
	if k.Huge != nil {
		t.Fatal("OFP uses THP, not hugeTLBfs")
	}
	if k.System != k.Root || k.App != k.Root {
		t.Fatal("without isolation both partitions alias the root cgroup")
	}
}

func TestDaemonsUnboundWhenCountermeasureOff(t *testing.T) {
	tune := FugakuTuning()
	tune.Counter.BindDaemons = false
	k, err := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	all := kernel.FullMask(k.Topo.NumCores())
	for _, d := range k.Daemons {
		if !d.Affinity.Equal(all) {
			t.Fatalf("unbound daemon %s affinity %s", d.Name, d.Affinity)
		}
	}
}

func TestSyscallCostsPlatformScaling(t *testing.T) {
	f := newFugakuKernel(t)
	o := newOFPKernel(t)
	fc, oc := f.SyscallCosts(), o.SyscallCosts()
	if oc.Cost(kernel.SysMmap) <= fc.Cost(kernel.SysMmap) {
		t.Fatal("KNL kernel paths must cost more than A64FX (slow in-order cores)")
	}
	if fc.Cost(kernel.SysGetpid) >= fc.Cost(kernel.SysMmap) {
		t.Fatal("getpid must be cheaper than mmap")
	}
}

func TestPageFaultCostOrdering(t *testing.T) {
	k := newFugakuKernel(t)
	if k.PageFaultCost(mem.Page64K) >= k.PageFaultCost(mem.Page2M) {
		t.Fatal("larger pages cost more per fault")
	}
	if k.PageFaultCost(mem.Page2M) >= k.PageFaultCost(mem.Page512M) {
		t.Fatal("512M fault must be the most expensive")
	}
	// But per byte, large pages win decisively.
	perByte := func(p mem.PageSize) float64 {
		return float64(k.PageFaultCost(p)) / float64(p)
	}
	if perByte(mem.Page2M) >= perByte(mem.Page64K) {
		t.Fatal("per-byte fault cost must fall with page size")
	}
}

func TestEffectiveAppPage(t *testing.T) {
	f := newFugakuKernel(t)
	page, cov := f.EffectiveAppPage(1 << 30)
	if page != mem.Page2M || cov != 1 {
		t.Fatalf("Fugaku: page=%v cov=%v, want 2M/1.0", page, cov)
	}
	o := newOFPKernel(t)
	pageO, covO := o.EffectiveAppPage(1 << 30)
	if pageO != mem.Page2M {
		t.Fatalf("OFP THP page = %v", pageO)
	}
	if covO <= 0 || covO > 1 {
		t.Fatalf("THP coverage = %v", covO)
	}
}

func TestTHPCoverageDegradesWithFragmentation(t *testing.T) {
	o := newOFPKernel(t)
	_, before := o.EffectiveAppPage(1 << 30)
	// Fragment the app domains: pin alternating 4K pages.
	for _, n := range o.Mem.AppNodes() {
		var regs []mem.Region
		for i := 0; i < 64; i++ {
			r, err := n.Buddy.Alloc(4 << 10)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, r)
		}
		for i := 0; i < len(regs); i += 2 {
			_ = n.Buddy.Free(regs[i])
		}
	}
	_, after := o.EffectiveAppPage(1 << 30)
	if after >= before {
		t.Fatalf("THP coverage must degrade with fragmentation: %v -> %v", before, after)
	}
}

func TestTranslationOverhead(t *testing.T) {
	f := newFugakuKernel(t)
	o := newOFPKernel(t)
	// 16 GiB working set streaming at 100ns per access.
	fo := f.TranslationOverhead(16<<30, 100*time.Nanosecond)
	oo := o.TranslationOverhead(16<<30, 100*time.Nanosecond)
	if fo < 0 || oo < 0 {
		t.Fatal("negative overhead")
	}
	// A64FX's 1024-entry TLB with 2M pages covers 2 GiB; KNL's 64 entries
	// cover 128 MiB — OFP must suffer more (Sec. 3.2).
	if oo <= fo {
		t.Fatalf("KNL overhead %v must exceed A64FX %v", oo, fo)
	}
}

func TestHeapChurnCost(t *testing.T) {
	f := newFugakuKernel(t)
	if f.HeapChurnCost(0, 0, 1) != 0 {
		t.Fatal("zero churn must be free")
	}
	small := f.HeapChurnCost(64<<20, 0, 1)
	big := f.HeapChurnCost(1<<30, 0, 1)
	if small <= 0 || big <= small {
		t.Fatalf("churn cost not monotone: %v %v", small, big)
	}
	threaded := f.HeapChurnCost(1<<30, 0, 48)
	if threaded <= big {
		t.Fatal("multi-threaded churn must add shootdown cost")
	}
}

func TestProcessExitFlushes(t *testing.T) {
	k := newFugakuKernel(t)
	if k.ProcessExitFlushes(100) < 100 {
		t.Fatal("teardown flush count too low")
	}
	if k.ProcessExitFlushes(0) < 1 {
		t.Fatal("teardown always flushes at least once")
	}
	// "Hundreds to thousands of consecutive TLB flushes" (Sec. 4.2.2).
	if n := k.ProcessExitFlushes(64); n < 100 || n > 10000 {
		t.Fatalf("flush count %d outside the paper's range", n)
	}
}

func TestRDMARegistrationCost(t *testing.T) {
	k := newFugakuKernel(t)
	small := k.RDMARegistrationCost(4 << 10)
	big := k.RDMARegistrationCost(1 << 30)
	if small <= 0 || big <= small {
		t.Fatalf("registration cost not monotone: %v %v", small, big)
	}
}

func TestBarrierLatency(t *testing.T) {
	f := newFugakuKernel(t)
	o := newOFPKernel(t)
	if f.BarrierLatency(48) >= o.BarrierLatency(48) {
		t.Fatal("A64FX hardware barrier must beat KNL software barrier")
	}
}

func TestCacheInterference(t *testing.T) {
	f := newFugakuKernel(t)
	if f.CacheInterferenceFactor() != 1 {
		t.Fatal("sector cache must remove OS cache interference")
	}
	tune := FugakuTuning()
	tune.SectorCache = false
	k, _ := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if k.CacheInterferenceFactor() <= 1 {
		t.Fatal("without sector cache the OS must interfere")
	}
	o := newOFPKernel(t)
	if o.CacheInterferenceFactor() <= 1 {
		t.Fatal("KNL has no sector cache; interference expected")
	}
}

func TestMemoryLayoutFor(t *testing.T) {
	f := FugakuTuning()
	layout := f.MemoryLayoutFor(cpu.A64FX(2), 32<<30)
	if len(layout.AppNodes) != 4 || len(layout.SysNodes) != 1 {
		t.Fatalf("layout = %d app + %d sys", len(layout.AppNodes), len(layout.SysNodes))
	}
	if layout.BasePage != 64<<10 {
		t.Fatalf("A64FX base page = %d, want 64K (Sec. 4.1.3)", layout.BasePage)
	}
	o := OFPTuning()
	layoutO := o.MemoryLayoutFor(cpu.KNL(), 112<<30)
	if len(layoutO.SysNodes) != 0 {
		t.Fatal("OFP layout must have no system domains")
	}
	if layoutO.BasePage != 4<<10 {
		t.Fatalf("x86 base page = %d, want 4K", layoutO.BasePage)
	}
}

func TestNewKernelRejectsInvalidTopology(t *testing.T) {
	bad := &cpu.Topology{Name: "bad"}
	if _, err := NewKernel(bad, FugakuTuning(), 32<<30); err == nil {
		t.Fatal("invalid topology must be rejected")
	}
}

func TestHugeTLBReservedStarvesSmallAllocations(t *testing.T) {
	// The downside Sec. 4.1.3 gives for boot-time pools: "this can be a
	// disadvantage for applications which do not require large pages".
	tune := FugakuTuning()
	tune.LargePage = HugeTLBReserved
	reserved, err := NewKernel(cpu.A64FX(2), tune, 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	overcommit := newFugakuKernel(t)
	if reserved.Mem.AppNodes()[0].Buddy.FreeBytes() >= overcommit.Mem.AppNodes()[0].Buddy.FreeBytes() {
		t.Fatal("boot-time pool must shrink general memory vs overcommit")
	}
}
