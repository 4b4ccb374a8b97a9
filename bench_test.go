// Package mkos's top-level benchmark harness: one benchmark per table and
// figure of the paper's evaluation (Sec. 6), plus ablation benchmarks for
// the design choices DESIGN.md calls out and micro-benchmarks of the
// substrate. Each experiment benchmark reports its headline metric through
// b.ReportMetric so `go test -bench` output doubles as a results table:
//
//	max_noise_us / noise_rate  for the Table 2 rows
//	relative_perf              for the Figure 5-7 points (Linux = 1.0)
//	tail_iteration_us          for the Figure 4 curves
//
// The experiment sizes here are reduced from the paper's (hundreds of nodes
// rather than thousands, tens of seconds of FWQ rather than minutes) so the
// full suite completes in minutes; cmd/tablegen, cmd/noiseprofile and
// cmd/mkexp regenerate the full-scale versions.
package mkos

import (
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/cpu"
	"mkos/internal/ihk"
	"mkos/internal/interconnect"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
	"mkos/internal/mem"
	"mkos/internal/mos"
	"mkos/internal/mpi"
	"mkos/internal/noise"
	"mkos/internal/sim"
)

// --- Table 2 ---------------------------------------------------------------

// BenchmarkTable2 regenerates the countermeasure-effectiveness table: FWQ on
// simulated A64FX nodes with one noise-elimination technique disabled per
// sub-benchmark.
func BenchmarkTable2(b *testing.B) {
	rows := []struct {
		name   string
		mutate func(*linux.Countermeasures)
	}{
		{"None", func(*linux.Countermeasures) {}},
		{"DaemonProcess", func(c *linux.Countermeasures) { c.BindDaemons = false }},
		{"UnboundKworkers", func(c *linux.Countermeasures) { c.BindKworkers = false }},
		{"BlkMQWorkers", func(c *linux.Countermeasures) { c.BindBlkMQ = false }},
		{"PMUCounterReads", func(c *linux.Countermeasures) { c.StopPMUReads = false }},
		{"CPUGlobalTLBFlush", func(c *linux.Countermeasures) { c.SuppressGlobalTLBI = false }},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			tune := linux.FugakuTuning()
			row.mutate(&tune.Counter)
			k, err := linux.NewKernel(cpu.A64FX(2), tune, 32<<30)
			if err != nil {
				b.Fatal(err)
			}
			cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: 30 * time.Second, Cores: k.AppCores()}
			var last noise.Analysis
			for i := 0; i < b.N; i++ {
				var err error
				last, err = apps.FWQNoise(cfg, k, 4, 12345)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.MaxNoise)/float64(time.Microsecond), "max_noise_us")
			b.ReportMetric(last.Rate*1e6, "noise_rate_e-6")
		})
	}
}

// --- Figure 3 ---------------------------------------------------------------

// BenchmarkFigure3 produces the noise-length time series data (one series
// per countermeasure state) and reports the series maximum.
func BenchmarkFigure3(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "AllCountermeasures"
		if disabled {
			name = "DaemonsUnbound"
		}
		b.Run(name, func(b *testing.B) {
			tune := linux.FugakuTuning()
			tune.Counter.BindDaemons = !disabled
			k, err := linux.NewKernel(cpu.A64FX(2), tune, 32<<30)
			if err != nil {
				b.Fatal(err)
			}
			cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: time.Minute, Cores: k.AppCores()[:1]}
			var maxUS float64
			for i := 0; i < b.N; i++ {
				// One node and one core: the series maximum is the
				// core's maximum noise length.
				a, err := apps.FWQNoise(cfg, k, 1, 5)
				if err != nil {
					b.Fatal(err)
				}
				maxUS = float64(a.MaxNoise) / float64(time.Microsecond)
			}
			b.ReportMetric(maxUS, "series_max_us")
		})
	}
}

// --- Figure 4 ---------------------------------------------------------------

// BenchmarkFigure4 builds the five FWQ latency CDF curves at reduced node
// counts and reports each curve's tail (largest iteration).
func BenchmarkFigure4(b *testing.B) {
	cfg := core.Figure4Config{
		OFPNodes: 32, FugakuFullNodes: 96, Fugaku24Racks: 12,
		Duration: 30 * time.Second, WorstNodes: 100, Seed: 20211114,
	}
	var curves []core.CDFCurve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = core.Figure4(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range curves {
		b.ReportMetric(c.CDF.Max(), "tail_us_"+c.Label)
	}
}

// --- Figures 5, 6, 7 ---------------------------------------------------------

// figureBench runs one application comparison point per iteration.
func figureBench(b *testing.B, platform apps.PlatformName, appName string, nodes int) {
	b.Helper()
	app, err := apps.ByName(appName, platform)
	if err != nil {
		b.Fatal(err)
	}
	p := core.PlatformFor(platform)
	var c core.Comparison
	for i := 0; i < b.N; i++ {
		c, err = core.Compare(p, app, nodes, []int64{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.Relative, "relative_perf")
}

// BenchmarkFigure5 regenerates the CORAL panels on OFP (at a mid-sweep and
// the top-of-sweep node count).
func BenchmarkFigure5(b *testing.B) {
	for _, app := range apps.CoralSuite() {
		for _, nodes := range []int{256, 2048} {
			b.Run(app+"/nodes-"+itoa(nodes), func(b *testing.B) {
				figureBench(b, apps.OnOFP, app, nodes)
			})
		}
	}
}

// BenchmarkFigure6 regenerates the Fugaku-project apps on OFP.
func BenchmarkFigure6(b *testing.B) {
	points := map[string]int{"LQCD": 2048, "GeoFEM": 2048, "GAMERA": 1024}
	for _, app := range apps.FugakuSuite() {
		b.Run(app+"/nodes-"+itoa(points[app]), func(b *testing.B) {
			figureBench(b, apps.OnOFP, app, points[app])
		})
	}
}

// BenchmarkFigure7 regenerates the Fugaku-project apps on Fugaku.
func BenchmarkFigure7(b *testing.B) {
	for _, app := range apps.FugakuSuite() {
		for _, nodes := range []int{512, 2048} {
			b.Run(app+"/nodes-"+itoa(nodes), func(b *testing.B) {
				figureBench(b, apps.OnFugaku, app, nodes)
			})
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationPicoDriver compares GAMERA's init phase with and without
// the LWK-integrated Tofu driver (the Sec. 5.1 design choice).
func BenchmarkAblationPicoDriver(b *testing.B) {
	for _, pico := range []bool{true, false} {
		name := "PicoDriver"
		if !pico {
			name = "OffloadedIoctl"
		}
		b.Run(name, func(b *testing.B) {
			host, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
			if err != nil {
				b.Fatal(err)
			}
			mgr := ihk.NewManager(host)
			if err := mgr.ReserveCPUs(host.Topo.AppCores()); err != nil {
				b.Fatal(err)
			}
			if err := mgr.ReserveMemory(2 << 30); err != nil {
				b.Fatal(err)
			}
			part, err := mgr.Boot()
			if err != nil {
				b.Fatal(err)
			}
			lwk, err := mckernel.Boot(host, part, mckernel.Config{PicoDriver: pico})
			if err != nil {
				b.Fatal(err)
			}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total = 0
				for r := 0; r < 36000; r++ {
					total += lwk.RDMARegistrationCost(256 << 10)
				}
			}
			b.ReportMetric(float64(total)/float64(time.Millisecond), "init_reg_ms")
		})
	}
}

// BenchmarkAblationPageSize compares the translation overhead of a 16 GiB
// working set under the paging policies of Sec. 4.1.3.
func BenchmarkAblationPageSize(b *testing.B) {
	policies := []struct {
		name   string
		policy linux.LargePagePolicy
	}{
		{"BasePagesOnly", linux.NoLargePages},
		{"THP", linux.THP},
		{"HugeTLBOvercommit", linux.HugeTLBOvercommit},
		{"HugeTLBReserved", linux.HugeTLBReserved},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			tune := linux.FugakuTuning()
			tune.LargePage = pc.policy
			k, err := linux.NewKernel(cpu.A64FX(2), tune, 32<<30)
			if err != nil {
				b.Fatal(err)
			}
			var oh float64
			for i := 0; i < b.N; i++ {
				oh = k.TranslationOverhead(16<<30, 100*time.Nanosecond)
			}
			b.ReportMetric(oh*100, "translation_overhead_pct")
		})
	}
}

// BenchmarkAblationTLBI compares the three remote-invalidation strategies of
// Sec. 4.2.2 for a process-teardown flush burst.
func BenchmarkAblationTLBI(b *testing.B) {
	topo := cpu.A64FX(2)
	k, err := linux.NewKernel(topo, linux.FugakuTuning(), 32<<30)
	if err != nil {
		b.Fatal(err)
	}
	flushes := k.ProcessExitFlushes(64)
	for _, m := range []cpu.ShootdownMethod{cpu.ShootdownBroadcast, cpu.ShootdownIPI, cpu.ShootdownLocalOnly} {
		b.Run(m.String(), func(b *testing.B) {
			var stall time.Duration
			for i := 0; i < b.N; i++ {
				initiator, perRemote := cpu.ShootdownCost(topo, m)
				remotes := topo.NumCores() - 1
				if m == cpu.ShootdownLocalOnly {
					remotes = 0
				}
				stall = time.Duration(flushes) * (initiator + time.Duration(remotes)*perRemote)
			}
			b.ReportMetric(float64(stall)/float64(time.Microsecond), "teardown_stall_us")
		})
	}
}

// BenchmarkAblationStacking measures the noise rate as countermeasures are
// enabled cumulatively, demonstrating the tuning journey of Sec. 4.2.
func BenchmarkAblationStacking(b *testing.B) {
	stages := []struct {
		name  string
		apply func(*linux.Countermeasures)
	}{
		{"0-none", func(c *linux.Countermeasures) { *c = linux.Countermeasures{} }},
		{"1-daemons", func(c *linux.Countermeasures) { c.BindDaemons = true }},
		{"2-kworkers", func(c *linux.Countermeasures) { c.BindKworkers = true }},
		{"3-blkmq", func(c *linux.Countermeasures) { c.BindBlkMQ = true }},
		{"4-pmu", func(c *linux.Countermeasures) { c.StopPMUReads = true }},
		{"5-tlbi", func(c *linux.Countermeasures) { c.SuppressGlobalTLBI = true }},
	}
	cm := linux.Countermeasures{}
	for _, st := range stages {
		st.apply(&cm)
		tune := linux.FugakuTuning()
		tune.Counter = cm
		b.Run(st.name, func(b *testing.B) {
			k, err := linux.NewKernel(cpu.A64FX(2), tune, 32<<30)
			if err != nil {
				b.Fatal(err)
			}
			cfg := apps.FWQConfig{Work: 6500 * time.Microsecond, Duration: 20 * time.Second, Cores: k.AppCores()}
			var last noise.Analysis
			for i := 0; i < b.N; i++ {
				var err error
				last, err = apps.FWQNoise(cfg, k, 2, 99)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Rate*1e6, "noise_rate_e-6")
		})
	}
}

// BenchmarkAblationVirtualNUMA measures application-domain fragmentation
// with and without the virtual NUMA node split of Sec. 4.1.2 after a burst
// of interleaved system/application allocations.
func BenchmarkAblationVirtualNUMA(b *testing.B) {
	for _, vnuma := range []bool{true, false} {
		name := "VirtualNUMA"
		if !vnuma {
			name = "SharedDomains"
		}
		b.Run(name, func(b *testing.B) {
			var frag float64
			for i := 0; i < b.N; i++ {
				tune := linux.FugakuTuning()
				tune.VirtualNUMA = vnuma
				k, err := linux.NewKernel(cpu.A64FX(2), tune, 32<<30)
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRand(7)
				// System daemons allocate small long-lived buffers while the
				// application churns large ones.
				var pinned []mem.Region
				for j := 0; j < 200; j++ {
					r, err := k.Mem.AllocKind(mem.SysNode, 64<<10)
					if err != nil {
						b.Fatal(err)
					}
					if rng.Bernoulli(0.5) {
						pinned = append(pinned, r)
					} else {
						if err := k.Mem.Free(r); err != nil {
							b.Fatal(err)
						}
					}
					big, err := k.Mem.AllocKind(mem.AppNode, 32<<20)
					if err != nil {
						b.Fatal(err)
					}
					if err := k.Mem.Free(big); err != nil {
						b.Fatal(err)
					}
				}
				frag = k.Mem.AppFragmentation(8) // 2 MiB blocks on a 64K/8 buddy... order 5 is 2M; use high order
				for _, r := range pinned {
					if err := k.Mem.Free(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(frag*100, "app_fragmentation_pct")
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i), "ev", func(*sim.Engine) {})
	}
	e.Run()
}

// BenchmarkBuddyAllocFree measures allocator round trips.
func BenchmarkBuddyAllocFree(b *testing.B) {
	buddy, err := mem.NewBuddy(0, 1<<30, 64<<10, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := buddy.Alloc(128 << 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := buddy.Free(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuddyFillDrain reserves memory the way ihk.ReserveMemory does on
// an Oakforest-PACS node — 16 GiB in 4 MiB max-order chunks from the 96 GiB
// DDR4 domain (4 KiB pages, max order 10) — then releases it. Unlike the
// round trip above, every allocation picks the lowest of ~24,000 free
// max-order blocks.
func BenchmarkBuddyFillDrain(b *testing.B) {
	const chunk = 4 << 20
	buddy, err := mem.NewBuddy(0, 96<<30, 4<<10, 10)
	if err != nil {
		b.Fatal(err)
	}
	regions := make([]mem.Region, 0, (16<<30)/chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for reserved := int64(0); reserved < 16<<30; reserved += chunk {
			r, err := buddy.Alloc(chunk)
			if err != nil {
				b.Fatal(err)
			}
			regions = append(regions, r)
		}
		for _, r := range regions {
			if err := buddy.Free(r); err != nil {
				b.Fatal(err)
			}
		}
		regions = regions[:0]
	}
}

// BenchmarkTimelineAdvance measures the FWQ inner loop.
func BenchmarkTimelineAdvance(b *testing.B) {
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "s", Cores: []int{0}, Mode: noise.TargetOne,
		Every: time.Millisecond, Length: 10 * time.Microsecond, LengthCV: 0.5,
	})
	tl := p.Timeline(10*time.Second, sim.NewRand(1))
	b.ResetTimer()
	t := sim.Time(0)
	for i := 0; i < b.N; i++ {
		t = tl.Advance(0, t, 6500*time.Microsecond)
		if t > sim.Time(9*time.Second) {
			t = 0
		}
	}
}

// BenchmarkSyscallDelegation compares local, delegated and native syscall
// dispatch costs (model evaluation throughput, not simulated latency).
func BenchmarkSyscallDelegation(b *testing.B) {
	host, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
	if err != nil {
		b.Fatal(err)
	}
	mgr := ihk.NewManager(host)
	if err := mgr.ReserveCPUs(host.Topo.AppCores()); err != nil {
		b.Fatal(err)
	}
	if err := mgr.ReserveMemory(1 << 30); err != nil {
		b.Fatal(err)
	}
	part, err := mgr.Boot()
	if err != nil {
		b.Fatal(err)
	}
	lwk, err := mckernel.Boot(host, part, mckernel.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("local-mmap", func(b *testing.B) {
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = lwk.SyscallCost(kernel.SysMmap)
		}
		b.ReportMetric(float64(d)/1e3, "simulated_us")
	})
	b.Run("delegated-open", func(b *testing.B) {
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = lwk.SyscallCost(kernel.SysOpen)
		}
		b.ReportMetric(float64(d)/1e3, "simulated_us")
	})
}

// BenchmarkBSPStep measures the application engine's per-run cost at a
// representative scale.
func BenchmarkBSPStep(b *testing.B) {
	app, err := apps.GeoFEM(apps.OnFugaku)
	if err != nil {
		b.Fatal(err)
	}
	machine, _, err := cluster.Fugaku().Machine(cluster.Linux, app.Geometry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bsp.Run(app.Workload, machine, 128, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationMultikernelDesign compares the three OS designs of the
// paper's Sec. 7 design space — native tuned Linux, the module-based
// IHK/McKernel co-kernel, and an mOS-style embedded LWK — on the same
// workload (GeoFEM at 512 Fugaku nodes).
func BenchmarkAblationMultikernelDesign(b *testing.B) {
	app, err := apps.GeoFEM(apps.OnFugaku)
	if err != nil {
		b.Fatal(err)
	}
	build := func(name string) (bsp.Machine, error) {
		switch name {
		case "mos":
			host, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
			if err != nil {
				return bsp.Machine{}, err
			}
			in, err := mos.Boot(host)
			if err != nil {
				return bsp.Machine{}, err
			}
			return bsp.Machine{
				OS: in, Fabric: interconnect.TofuD(), Cores: in.LWKCores,
				RanksPerNode: app.Geometry.RanksPerNode, ThreadsPerRank: app.Geometry.ThreadsPerRank,
			}, nil
		case "mckernel":
			m, _, err := cluster.Fugaku().Machine(cluster.McKernel, app.Geometry)
			return m, err
		default:
			m, _, err := cluster.Fugaku().Machine(cluster.Linux, app.Geometry)
			return m, err
		}
	}
	for _, design := range []string{"linux", "mckernel", "mos"} {
		b.Run(design, func(b *testing.B) {
			machine, err := build(design)
			if err != nil {
				b.Fatal(err)
			}
			var r bsp.Result
			for i := 0; i < b.N; i++ {
				r, err = bsp.Run(app.Workload, machine, 512, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Runtime)/float64(time.Millisecond), "runtime_ms")
			b.ReportMetric(float64(r.Breakdown.Noise)/float64(time.Microsecond), "noise_us")
		})
	}
}

// BenchmarkIsolationColocation measures the primary application's
// co-location slowdown under cgroup vs multi-kernel isolation — the
// multi-tenant future-work direction of Sec. 8.
func BenchmarkIsolationColocation(b *testing.B) {
	for _, mode := range []core.IsolationMode{core.CgroupIsolation, core.MultikernelIsolation} {
		b.Run(mode.String(), func(b *testing.B) {
			var r core.IsolationResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = core.RunIsolation(apps.OnFugaku, mode, "GeoFEM", 128, core.AnalyticsTenant(), 9, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((r.Slowdown-1)*100, "colocation_slowdown_pct")
		})
	}
}

// BenchmarkMPICollectives measures the rank-level communication cost model
// across the paper's scales (simulated costs reported, model evaluation
// timed).
func BenchmarkMPICollectives(b *testing.B) {
	for _, nodes := range []int{64, 1024, 8192} {
		b.Run("nodes-"+itoa(nodes), func(b *testing.B) {
			comm, err := mpi.NewComm(interconnect.TofuD(), nodes, 4)
			if err != nil {
				b.Fatal(err)
			}
			var allre, barrier time.Duration
			for i := 0; i < b.N; i++ {
				if allre, err = comm.AllreduceCost(8); err != nil {
					b.Fatal(err)
				}
				if barrier, err = comm.BarrierCost(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(allre)/1e3, "allreduce8B_us")
			b.ReportMetric(float64(barrier)/1e3, "barrier_us")
		})
	}
}
