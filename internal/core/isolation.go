package core

import (
	"fmt"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/cpu"
	"mkos/internal/noise"
	"mkos/internal/telemetry"
)

// Performance isolation under co-location — the paper's closing future-work
// direction: "multi-kernel systems provide excellent performance isolation
// which could play an important role in multi-tenant deployments on
// accelerator equipped fat compute nodes" (Sec. 8), citing the co-kernel
// isolation results of Ouyang et al. [37]. This experiment co-locates a
// bulk-synchronous primary application with a secondary tenant (an in-situ
// analytics/IO workload) on the same nodes and measures the primary's
// slowdown relative to running alone, under two isolation schemes:
//
//   - CgroupIsolation: both tenants under Linux, separated by cgroups —
//     the best Linux can do. CPU time is partitioned, but the tenant's
//     kernel activity (syscalls, page cache, writeback) still executes in
//     the shared kernel and bleeds onto primary cores, and the LLC is
//     shared.
//   - MultikernelIsolation: the primary on a McKernel partition, the tenant
//     confined to the Linux cores. Only the physically unpartitionable
//     resource — memory bandwidth — is still shared.

// IsolationMode selects the co-location scheme.
type IsolationMode int

const (
	// CgroupIsolation runs both tenants under one Linux with cgroups.
	CgroupIsolation IsolationMode = iota
	// MultikernelIsolation gives the primary its own LWK partition.
	MultikernelIsolation
)

func (m IsolationMode) String() string {
	if m == MultikernelIsolation {
		return "multikernel"
	}
	return "cgroups"
}

// Tenant describes the co-located secondary workload.
type Tenant struct {
	Name string
	// BandwidthDemand is the tenant's sustained memory traffic (bytes/s).
	BandwidthDemand float64
	// KernelActivity is the rate of tenant-induced kernel work (syscalls,
	// page-cache fills, writeback scheduling) that can land on primary
	// cores when the kernel is shared.
	KernelActivity      time.Duration // mean length of one episode
	KernelActivityEvery time.Duration // per-core interval on shared kernels
}

// AnalyticsTenant is a representative in-situ analytics/IO companion.
func AnalyticsTenant() Tenant {
	return Tenant{
		Name:                "in-situ-analytics",
		BandwidthDemand:     180e9,
		KernelActivity:      120 * time.Microsecond,
		KernelActivityEvery: 250 * time.Millisecond,
	}
}

// IsolationResult reports one co-location measurement.
type IsolationResult struct {
	Mode     IsolationMode
	Platform string
	Nodes    int
	// AloneRuntime is the primary's runtime without the tenant.
	AloneRuntime time.Duration
	// CoRuntime is the primary's runtime with the tenant co-located.
	CoRuntime time.Duration
	// Slowdown is CoRuntime/AloneRuntime (1.0 = perfect isolation).
	Slowdown float64
}

// tenantNoiseOS wraps a bsp.OS, adding the tenant's kernel-activity bleed
// to the noise profile and the shared-LLC penalty — what cgroup isolation
// cannot remove.
type tenantNoiseOS struct {
	bsp.OS
	tenant Tenant
	cores  []int
}

func (o tenantNoiseOS) NoiseProfile() *noise.Profile {
	// A copy of the OS's profile, so the tenant's noise is attributed to
	// the OS's subsystem and published into its sink.
	out := *o.OS.NoiseProfile()
	out.Sources = append([]*noise.Source(nil), out.Sources...)
	iv := o.tenant.KernelActivityEvery / time.Duration(max(1, len(o.cores)))
	if iv < time.Microsecond {
		iv = time.Microsecond
	}
	out.MustAdd(&noise.Source{
		Name: "tenant-" + o.tenant.Name, Cores: o.cores, Mode: noise.TargetRandom,
		Every: iv, EveryCV: 0.6,
		Length: o.tenant.KernelActivity, LengthCV: 0.7,
	})
	return &out
}

func (o tenantNoiseOS) CacheInterferenceFactor() float64 {
	// Tenant user-space traffic pollutes the LLC; the sector cache only
	// partitions OS vs application, not tenant vs tenant.
	return o.OS.CacheInterferenceFactor() * 1.015
}

// RunIsolation measures the primary's co-location slowdown, publishing its
// telemetry into sink.
func RunIsolation(platform apps.PlatformName, mode IsolationMode, appName string, nodes int, tenant Tenant, seed int64, sink *telemetry.Sink) (IsolationResult, error) {
	app, err := apps.ByName(appName, platform)
	if err != nil {
		return IsolationResult{}, err
	}
	p := PlatformFor(platform)
	p.Sink = sink
	nodes = p.ClampNodes(nodes)

	kind := cluster.Linux
	if mode == MultikernelIsolation {
		kind = cluster.McKernel
	}
	machine, _, err := p.Machine(kind, app.Geometry)
	if err != nil {
		return IsolationResult{}, err
	}

	alone, err := bsp.Run(app.Workload, machine, nodes, seed)
	if err != nil {
		return IsolationResult{}, err
	}

	// Memory-bandwidth contention applies in both modes (hardware-shared).
	memsys := cpu.A64FXMemory()
	if platform == apps.OnOFP {
		memsys = cpu.KNLMemory()
	}
	primaryDemand := primaryBandwidthDemand(app.Workload, len(machine.Cores))
	bwFactor := memsys.SlowdownWith(primaryDemand, tenant.BandwidthDemand)

	co := machine
	if mode == CgroupIsolation {
		// Shared kernel: tenant activity bleeds onto primary cores and the
		// LLC is shared.
		co.OS = tenantNoiseOS{OS: machine.OS, tenant: tenant, cores: machine.Cores}
	}
	coRun, err := bsp.Run(app.Workload, co, nodes, seed)
	if err != nil {
		return IsolationResult{}, err
	}
	coRuntime := time.Duration(float64(coRun.Runtime) * bwFactor)

	return IsolationResult{
		Mode: mode, Platform: string(platform), Nodes: nodes,
		AloneRuntime: alone.Runtime, CoRuntime: coRuntime,
		Slowdown: float64(coRuntime) / float64(alone.Runtime),
	}, nil
}

// primaryBandwidthDemand estimates the application's node-level sustained
// memory traffic: each core streams roughly one prefetched line group per
// distinct access interval.
func primaryBandwidthDemand(w bsp.Workload, cores int) float64 {
	if w.MemAccessPeriod <= 0 || cores <= 0 {
		return 0
	}
	const lineGroup = 1024 // bytes moved per distinct access incl. prefetch
	return float64(cores) * lineGroup / w.MemAccessPeriod.Seconds()
}

// CompareIsolation runs both schemes and returns (cgroups, multikernel).
func CompareIsolation(platform apps.PlatformName, appName string, nodes int, tenant Tenant, seed int64, sink *telemetry.Sink) (IsolationResult, IsolationResult, error) {
	cg, err := RunIsolation(platform, CgroupIsolation, appName, nodes, tenant, seed, sink)
	if err != nil {
		return IsolationResult{}, IsolationResult{}, fmt.Errorf("core: cgroup isolation: %w", err)
	}
	mk, err := RunIsolation(platform, MultikernelIsolation, appName, nodes, tenant, seed, sink)
	if err != nil {
		return IsolationResult{}, IsolationResult{}, fmt.Errorf("core: multikernel isolation: %w", err)
	}
	return cg, mk, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
