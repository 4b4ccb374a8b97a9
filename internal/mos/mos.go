// Package mos models Intel's mOS, the multi-kernel the paper identifies as
// closest to IHK/McKernel (Sec. 7): an LWK compiled *into* the Linux kernel
// rather than booted beside it. The design trades differently —
//
//   - stronger integration: no proxy process and no IKC; offloaded system
//     calls are shipped to a Linux core as direct kernel work, roughly
//     halving delegation latency;
//   - reuse of Linux infrastructure (page tables, timekeeping, RCU), which
//     means some Linux housekeeping still executes on LWK cores — "this
//     approach comes at the price of Linux modifications and an increased
//     complexity in eliminating OS interference";
//   - kernel-source maintenance burden: the modifications must track
//     mainline Linux, the exact cost the Fugaku team avoided (Sec. 4.1).
//
// The package exists for design-space ablations
// (BenchmarkAblationMultikernelDesign): it satisfies the same bsp.OS
// contract as linux.Kernel and mckernel.Instance.
package mos

import (
	"errors"
	"time"

	"mkos/internal/cpu"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mem"
	"mkos/internal/noise"
)

// Instance is a booted mOS node: Linux with an embedded LWK owning a core
// partition.
type Instance struct {
	Host     *linux.Kernel
	LWKCores []int
}

// ErrNoCores reports an empty LWK partition.
var ErrNoCores = errors.New("mos: no LWK cores")

// Boot designates the host's application cores as LWK cores. Unlike IHK
// there is no dynamic reservation: the partition is a boot parameter
// (lwkcpus=), another integration-vs-flexibility trade.
func Boot(host *linux.Kernel) (*Instance, error) {
	cores := host.Topo.AppCores()
	if len(cores) == 0 {
		return nil, ErrNoCores
	}
	return &Instance{Host: host, LWKCores: cores}, nil
}

// Name identifies the configuration.
func (in *Instance) Name() string {
	if in.Host.Topo.ISA == cpu.X86_64 {
		return "ofp-mos"
	}
	return "fugaku-mos"
}

// forwardCost is the latency of shipping a syscall to a Linux core as
// direct kernel work (no proxy wake, no message channel) — the mOS
// "stronger integration" advantage over IHK/McKernel's IKC round trip.
const forwardCost = 1200 * time.Nanosecond

// lwkLocalCosts mirrors McKernel's local fast paths; both LWKs implement
// simple purpose-built memory and thread management.
func lwkLocalCosts() kernel.CostTable {
	return kernel.CostTable{
		kernel.SysGetpid:  120 * time.Nanosecond,
		kernel.SysMmap:    1700 * time.Nanosecond,
		kernel.SysMunmap:  1400 * time.Nanosecond,
		kernel.SysBrk:     700 * time.Nanosecond,
		kernel.SysMadvise: 600 * time.Nanosecond,
		kernel.SysFutex:   950 * time.Nanosecond,
		kernel.SysClone:   9 * time.Microsecond,
		kernel.SysExit:    6 * time.Microsecond,
		kernel.SysSignal:  800 * time.Nanosecond,
	}
}

// SyscallCost routes like McKernel but forwards cheaper.
func (in *Instance) SyscallCost(sc kernel.Syscall) time.Duration {
	if sc.PerformanceSensitive() {
		return lwkLocalCosts().Cost(sc)
	}
	return forwardCost + in.Host.SyscallCosts().Cost(sc)
}

// TranslationOverhead: mOS reuses Linux page tables but maps LWK memory
// with large pages, matching McKernel's coverage.
func (in *Instance) TranslationOverhead(workingSet int64, accessPeriod time.Duration) float64 {
	return in.Host.Topo.TLB.TranslationOverhead(workingSet, mem.Page2M.Bytes(), accessPeriod)
}

// HeapChurnCost: the mOS LWK memory manager also retains freed physical
// memory, but the shared Linux mm structures add bookkeeping per call.
func (in *Instance) HeapChurnCost(churnBytes int64, calls, threads int) time.Duration {
	if churnBytes <= 0 && calls <= 0 {
		return 0
	}
	if calls < 1 {
		calls = int(churnBytes / (8 << 20))
		if calls < 1 {
			calls = 1
		}
	}
	costs := lwkLocalCosts()
	perCall := (costs.Cost(kernel.SysMmap)+costs.Cost(kernel.SysMunmap))/2 +
		400*time.Nanosecond // shared-mm bookkeeping
	return time.Duration(calls) * perCall
}

// RDMARegistrationCost: mOS reaches the vendor driver in-kernel without a
// channel crossing but still pays the full driver path (no PicoDriver-style
// split driver existed for it).
func (in *Instance) RDMARegistrationCost(bytes int64) time.Duration {
	return forwardCost + in.Host.RDMARegistrationCost(bytes)
}

// BarrierLatency: same hardware as the host.
func (in *Instance) BarrierLatency(n int) time.Duration { return in.Host.BarrierLatency(n) }

// CacheInterferenceFactor: residual Linux housekeeping on LWK cores touches
// the shared cache occasionally; with the sector cache enabled the host
// still isolates it.
func (in *Instance) CacheInterferenceFactor() float64 {
	if in.Host.Tune.SectorCache && in.Host.Topo.HasSectorCache {
		return 1
	}
	return 1.005
}

// Noise calibration: cleaner than tuned Linux, but not McKernel-silent —
// Linux timekeeping, RCU callbacks and vmstat updates still visit LWK cores
// because the infrastructure is shared.
const (
	rcuLength     = 4 * time.Microsecond
	rcuLenCV      = 0.4
	rcuInterval   = 4 * time.Second // per core
	housekeeping  = 15 * time.Microsecond
	housekeepCV   = 0.5
	housekeepTick = 120 * time.Second // per core
)

// NoiseProfile returns the embedded-LWK residual noise.
func (in *Instance) NoiseProfile() *noise.Profile {
	p := &noise.Profile{Sink: in.Host.Sink}
	p.MustAdd(&noise.Source{
		Name: "rcu-callbacks", Cores: in.LWKCores, Mode: noise.TargetRandom,
		Every: spread(rcuInterval, len(in.LWKCores)), EveryCV: 0.4,
		Length: rcuLength, LengthCV: rcuLenCV,
	})
	p.MustAdd(&noise.Source{
		Name: "linux-housekeeping", Cores: in.LWKCores, Mode: noise.TargetRandom,
		Every: spread(housekeepTick, len(in.LWKCores)), EveryCV: 0.5,
		Length: housekeeping, LengthCV: housekeepCV,
	})
	return p
}

func spread(perCore time.Duration, nCores int) time.Duration {
	if nCores < 1 {
		nCores = 1
	}
	iv := perCore / time.Duration(nCores)
	if iv < time.Microsecond {
		iv = time.Microsecond
	}
	return iv
}
