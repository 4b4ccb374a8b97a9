package mos

import (
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/cpu"
	"mkos/internal/interconnect"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/noise"
)

func bootMOS(t *testing.T) *Instance {
	t.Helper()
	host, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Boot(host)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBootValidation(t *testing.T) {
	in := bootMOS(t)
	if len(in.LWKCores) != 48 {
		t.Fatalf("LWK cores = %d", len(in.LWKCores))
	}
	if in.Name() != "fugaku-mos" {
		t.Fatalf("Name = %s", in.Name())
	}
}

func TestMOSDelegationCheaperThanMcKernel(t *testing.T) {
	in := bootMOS(t)
	node, err := cluster.Fugaku().NewNode(cluster.McKernel)
	if err != nil {
		t.Fatal(err)
	}
	mck := node.LWK
	// mOS forwards without a proxy: delegated calls must be cheaper than
	// McKernel's IKC path but dearer than native Linux.
	for _, sc := range []kernel.Syscall{kernel.SysOpen, kernel.SysIoctl, kernel.SysWrite} {
		mosCost := in.SyscallCost(sc)
		mckCost := mck.SyscallCost(sc)
		native := in.Host.SyscallCosts().Cost(sc)
		if mosCost >= mckCost {
			t.Errorf("%v: mOS %v must beat McKernel %v (no proxy wake)", sc, mosCost, mckCost)
		}
		if mosCost <= native {
			t.Errorf("%v: mOS %v must still exceed native %v", sc, mosCost, native)
		}
	}
	// Local calls are in the same league for both LWKs.
	if in.SyscallCost(kernel.SysMmap) >= in.Host.SyscallCosts().Cost(kernel.SysMmap) {
		t.Error("mOS local mmap must beat Linux")
	}
}

func TestMOSNoisierThanMcKernelQuieterThanLinux(t *testing.T) {
	if testing.Short() {
		t.Skip("FWQ simulation")
	}
	in := bootMOS(t)
	node, err := cluster.Fugaku().NewNode(cluster.McKernel)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prof apps.NoiseProfiler, cores []int) noise.Analysis {
		cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: time.Minute, Cores: cores}
		m, err := apps.FWQNoise(cfg, prof, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mosA := run(in, in.LWKCores)
	mckA := run(node.LWK, node.LWK.Part.Cores)
	linA := run(node.Host, node.Host.AppCores())
	t.Logf("rates: mos=%.3g mckernel=%.3g linux=%.3g", mosA.Rate, mckA.Rate, linA.Rate)
	// The design-space ordering of Sec. 7: shared infrastructure means mOS
	// cannot be as silent as a from-scratch co-kernel.
	if mosA.Rate <= mckA.Rate {
		t.Errorf("mOS rate %v must exceed McKernel %v (shared Linux infra)", mosA.Rate, mckA.Rate)
	}
	if mosA.Rate >= linA.Rate {
		t.Errorf("mOS rate %v must still beat full Linux %v", mosA.Rate, linA.Rate)
	}
}

func TestMOSSatisfiesBSPContract(t *testing.T) {
	in := bootMOS(t)
	var _ bsp.OS = in
	w := bsp.Workload{
		Name: "w", Scaling: bsp.StrongScaling, RefNodes: 16,
		Steps: 5, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 256 << 20, MemAccessPeriod: 100 * time.Nanosecond,
		HeapChurnPerStep: 8 << 20, HeapCallsPerStep: 10,
	}
	m := bsp.Machine{
		OS: in, Fabric: interconnect.TofuD(),
		Cores: in.LWKCores, RanksPerNode: 4, ThreadsPerRank: 12,
	}
	r, err := bsp.Run(w, m, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime <= 0 {
		t.Fatal("no runtime")
	}
}

func TestMOSCostModelEdges(t *testing.T) {
	in := bootMOS(t)
	if in.HeapChurnCost(0, 0, 1) != 0 {
		t.Fatal("zero churn must be free")
	}
	if in.HeapChurnCost(64<<20, 0, 1) <= 0 {
		t.Fatal("byte-derived call count broken")
	}
	if in.RDMARegistrationCost(1<<20) <= in.Host.RDMARegistrationCost(1<<20) {
		t.Fatal("mOS registration must cost at least the native driver path")
	}
	if in.CacheInterferenceFactor() != 1 {
		t.Fatal("sector cache must isolate on Fugaku tuning")
	}
	if in.TranslationOverhead(16<<30, 100*time.Nanosecond) < 0 {
		t.Fatal("negative overhead")
	}
	if in.BarrierLatency(48) != in.Host.BarrierLatency(48) {
		t.Fatal("barrier must match the host hardware")
	}
}

func TestBootNoCores(t *testing.T) {
	bad := &cpu.Topology{
		Name: "sysonly", ISA: cpu.AArch64, NUMADomains: 1, Frequency: 1e9,
		Cores: []cpu.Core{{ID: 0, NUMA: 0, Kind: cpu.AssistantCore, SMT: 1, ThreadIDs: []int{0}}},
	}
	host, err := linux.NewKernel(bad, linux.Tuning{Name: "t"}, 8<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(host); err != ErrNoCores {
		t.Fatalf("err = %v", err)
	}
}
