package linux

import (
	"time"

	"mkos/internal/cpu"
	"mkos/internal/noise"
)

// Noise-source calibration. The constants below are set so the simulated FWQ
// experiment (6.5 ms quanta, 6-minute runs on a 16-node A64FX system)
// reproduces the measurements of Table 2:
//
//	countermeasure disabled    max noise (µs)   noise rate
//	none (all enabled)               50.44        3.79e-6
//	daemon binding off            20,346.98       9.94e-4
//	kworker binding off              266.34       4.58e-6
//	blk-mq binding off               387.91       4.58e-6
//	PMU-read stop off                103.09       8.27e-6
//	TLBI suppression off              90.2        3.87e-6
//
// A source's expected contribution to the Eq. 2 noise rate is
// mean(length)/mean(per-core interval); intervals below derive from the
// published rates. Max-noise-length targets pin the length spread (CV) and
// the Pareto tails: max of n lognormal draws grows like
// exp(sigma*sqrt(2 ln n)) and max of n Pareto draws like xm*n^(1/alpha), so
// tail shape controls how the profile extrapolates from 16 nodes to full
// scale — the paper's Figure 4b full-scale-vs-24-rack contrast emerges from
// exactly this sample-size effect.
const (
	// sar: the residual monitor that cannot be disabled ("required on
	// Fugaku for operation purposes"); defines the baseline Table 2 row.
	// Rare tail events become visible only at full machine scale.
	sarLength   = 30 * time.Microsecond
	sarLenCV    = 0.15
	sarInterval = 17 * time.Second // per core

	// Very rare system-global storms (parallel-filesystem hiccups,
	// fleet-wide monitoring bursts). Invisible on a 16-node testbed
	// (expected events over a 6-minute Table 2 run: ~0.1) but present in
	// a full-scale sweep — the reason the paper's Figure 4b full-scale
	// Linux curve has a multi-millisecond tail that 24 racks mostly lack.
	stormLength     = 1200 * time.Microsecond
	stormLenCV      = 0.6
	stormInterval   = 32 * 24 * time.Hour // per core
	stormTailProb   = 0.05
	stormTailFactor = 2
	stormTailAlpha  = 3.0

	// Unbound OS daemons wake up anywhere on the chip; their worst events
	// (journal flushes, NetworkManager scans) run for tens of milliseconds.
	daemonLength     = 330 * time.Microsecond
	daemonLenCV      = 1.2
	daemonTailProb   = 0.008
	daemonTailFactor = 2.0 // xm = 660 µs; alpha 2.6 → ~20 ms max at 16 nodes
	daemonTailAlpha  = 2.6
	daemonInterval   = 340 * time.Millisecond // per core

	// Unbound kworkers: short kernel work items (vmstat updates, dirty
	// writeback scheduling).
	kworkerLength   = 60 * time.Microsecond
	kworkerLenCV    = 0.45
	kworkerInterval = 76 * time.Second // per core

	// blk-mq completion workers spawned onto app cores by the hardware
	// context cpumask (Sec. 4.2.1); longer than generic kworkers.
	blkmqLength   = 80 * time.Microsecond
	blkmqLenCV    = 0.5
	blkmqInterval = 101 * time.Second // per core

	// TCS PMU collection: reads on all CPU cores in kernel space involving
	// IPIs, even when initiated from an assistant core (Sec. 4.2.1).
	pmuLength   = 50 * time.Microsecond
	pmuLenCV    = 0.22
	pmuInterval = 11200 * time.Millisecond

	// Broadcast TLBI bursts: single-core processes (TCS components, short
	// scripts) terminating on assistant cores broadcast hundreds of flushes
	// at ~200 ns each across the whole chip (Sec. 4.2.2).
	tlbiLength   = 28 * time.Microsecond
	tlbiLenCV    = 0.8
	tlbiInterval = 320 * time.Second

	// Residual 1 Hz housekeeping tick that nohz_full cannot remove.
	nohzResidualLength   = 2 * time.Microsecond
	nohzResidualInterval = time.Second // per core

	// Full timer tick for cores without nohz_full (10 ms on the modelled
	// kernels — the reason FWQ uses quanta just under 10 ms).
	timerTickLength = 2500 * time.Nanosecond
	timerTickPeriod = 10 * time.Millisecond
)

// OFP-specific calibration: the moderately tuned environment is much noisier
// (Figure 4a: Linux FWQ iterations up to 24 ms against the 6.5 ms quantum).
const (
	ofpDaemonLength     = 400 * time.Microsecond
	ofpDaemonLenCV      = 0.65
	ofpDaemonTailProb   = 0.01
	ofpDaemonTailFactor = 2.5                     // xm = 1 ms
	ofpDaemonTailAlpha  = 5                       // max grows slowly with node count; ~18 ms at 1k nodes
	ofpDaemonInterval   = 1200 * time.Millisecond // per core

	// Device IRQs balanced across the entire chip (Sec. 3.1).
	ofpIRQLength   = 15 * time.Microsecond
	ofpIRQLenCV    = 0.5
	ofpIRQInterval = 2 * time.Second // per core

	// khugepaged scanning and direct compaction stalls under THP.
	ofpTHPLength   = 300 * time.Microsecond
	ofpTHPLenCV    = 0.6
	ofpTHPInterval = 25 * time.Second // per core
)

// NoiseProfile derives the node's noise-source set from the tuning. FWQ and
// the BSP engine sample interruption timelines from this profile. Sources
// bound to assistant cores are included (they exist!) but target only
// assistant cores, so application cores never observe them — the whole point
// of the Sec. 4.2 partitioning.
func (k *Kernel) NoiseProfile() *noise.Profile {
	app := k.Topo.AppCores()
	sys := k.Topo.AssistantCores()
	all := append(append([]int{}, app...), sys...)
	p := &noise.Profile{Subsystem: "linux", Sink: k.Sink}

	if k.Topo.ISA == cpu.X86_64 {
		k.ofpProfile(p, app, all)
		return p
	}

	// --- Fugaku-class A64FX node ---
	if k.Tune.SarEnabled {
		p.MustAdd(&noise.Source{
			Name: "sar", Cores: app, Mode: noise.TargetRandom,
			Every: spread(sarInterval, len(app)), EveryCV: 0.3,
			Length: sarLength, LengthCV: sarLenCV,
		})
	}

	p.MustAdd(&noise.Source{
		Name: "fs-storm", Cores: app, Mode: noise.TargetRandom,
		Every: spread(stormInterval, len(app)), EveryCV: 0.5,
		Length: stormLength, LengthCV: stormLenCV,
		TailProb: stormTailProb, TailFactor: stormTailFactor, TailAlpha: stormTailAlpha,
	})

	daemonCores := all
	if k.Tune.Counter.BindDaemons && len(sys) > 0 {
		daemonCores = sys
	}
	p.MustAdd(&noise.Source{
		Name: "daemons", Cores: daemonCores, Mode: noise.TargetRandom,
		Every: spread(daemonInterval, len(daemonCores)), EveryCV: 0.8,
		Length: daemonLength, LengthCV: daemonLenCV,
		TailProb: daemonTailProb, TailFactor: daemonTailFactor, TailAlpha: daemonTailAlpha,
	})

	kwCores := all
	if k.Tune.Counter.BindKworkers && len(sys) > 0 {
		kwCores = sys
	}
	p.MustAdd(&noise.Source{
		Name: "kworkers", Cores: kwCores, Mode: noise.TargetRandom,
		Every: spread(kworkerInterval, len(kwCores)), EveryCV: 0.6,
		Length: kworkerLength, LengthCV: kworkerLenCV,
	})

	blkCores := all
	if k.Tune.Counter.BindBlkMQ && len(sys) > 0 {
		blkCores = sys
	}
	p.MustAdd(&noise.Source{
		Name: "blk-mq", Cores: blkCores, Mode: noise.TargetRandom,
		Every: spread(blkmqInterval, len(blkCores)), EveryCV: 0.6,
		Length: blkmqLength, LengthCV: blkmqLenCV,
	})

	if !k.Tune.Counter.StopPMUReads {
		// PMU counters read on all CPU cores in kernel space via IPIs.
		p.MustAdd(&noise.Source{
			Name: "pmu-read", Cores: all, Mode: noise.TargetAll,
			Every: pmuInterval, EveryCV: 0.25,
			Length: pmuLength, LengthCV: pmuLenCV,
		})
	}

	if !k.Tune.Counter.SuppressGlobalTLBI && k.Topo.TLBIBroadcastPenalty > 0 {
		// Broadcast invalidations stall every core in the inner-sharable
		// domain simultaneously.
		p.MustAdd(&noise.Source{
			Name: "tlbi-broadcast", Cores: all, Mode: noise.TargetAll,
			Every: tlbiInterval, EveryCV: 0.7,
			Length: tlbiLength, LengthCV: tlbiLenCV,
		})
	}

	if k.Tune.NohzFull {
		p.MustAdd(&noise.Source{
			Name: "nohz-residual", Cores: app, Mode: noise.TargetRandom,
			Every: spread(nohzResidualInterval, len(app)), EveryCV: 0.2,
			Length: nohzResidualLength, LengthCV: 0.2,
		})
	} else {
		p.MustAdd(&noise.Source{
			Name: "timer-tick", Cores: app, Mode: noise.TargetAll,
			Every: timerTickPeriod, Length: timerTickLength, LengthCV: 0.1,
		})
	}
	return p
}

// ofpProfile builds the moderately tuned OFP environment: no cgroup
// isolation, IRQs balanced across the chip, THP compaction stalls.
func (k *Kernel) ofpProfile(p *noise.Profile, app, all []int) {
	p.MustAdd(&noise.Source{
		Name: "daemons", Cores: all, Mode: noise.TargetRandom,
		Every: spread(ofpDaemonInterval, len(all)), EveryCV: 0.9,
		Length: ofpDaemonLength, LengthCV: ofpDaemonLenCV,
		TailProb: ofpDaemonTailProb, TailFactor: ofpDaemonTailFactor, TailAlpha: ofpDaemonTailAlpha,
	})
	p.MustAdd(&noise.Source{
		Name: "irq-balance", Cores: all, Mode: noise.TargetRandom,
		Every: spread(ofpIRQInterval, len(all)), EveryCV: 0.5,
		Length: ofpIRQLength, LengthCV: ofpIRQLenCV,
	})
	if k.Tune.LargePage == THP {
		p.MustAdd(&noise.Source{
			Name: "thp-compaction", Cores: all, Mode: noise.TargetRandom,
			Every: spread(ofpTHPInterval, len(all)), EveryCV: 0.8,
			Length: ofpTHPLength, LengthCV: ofpTHPLenCV,
		})
	}
	if k.Tune.SarEnabled {
		p.MustAdd(&noise.Source{
			Name: "sar", Cores: app, Mode: noise.TargetRandom,
			Every: spread(sarInterval, len(app)), EveryCV: 0.3,
			Length: 50 * time.Microsecond, LengthCV: 0.3, // KNL cores are slower
		})
	}
	if k.Tune.NohzFull {
		p.MustAdd(&noise.Source{
			Name: "nohz-residual", Cores: app, Mode: noise.TargetRandom,
			Every: spread(nohzResidualInterval, len(app)), EveryCV: 0.2,
			Length: 4 * time.Microsecond, LengthCV: 0.2,
		})
	} else {
		p.MustAdd(&noise.Source{
			Name: "timer-tick", Cores: app, Mode: noise.TargetAll,
			Every: timerTickPeriod, Length: 6 * time.Microsecond, LengthCV: 0.1,
		})
	}
}

// spread converts a per-core event interval into the source-level interval:
// a TargetRandom source spreading events over nCores must emit one every
// perCore/nCores for each core to see one per perCore on average.
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
