// partition walks through the IHK/McKernel lifecycle of Figure 2 and Sec. 5:
// dynamic resource partitioning (no reboot), LWK boot, proxy-process
// creation, system-call routing (local vs. delegated), the cooperative
// tick-less scheduler, and the Tofu PicoDriver fast path.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"

	"mkos/internal/cpu"
	"mkos/internal/ihk"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
)

func main() {
	log.SetFlags(0)

	// Boot the host Linux (Fugaku tuning) and load IHK.
	host, err := linux.NewKernel(cpu.A64FX(2), linux.FugakuTuning(), 32<<30)
	if err != nil {
		log.Fatal(err)
	}
	mgr := ihk.NewManager(host)

	// Reserve 36 of the 48 application cores and 2 GiB per CMG — leaving
	// 12 cores to Linux demonstrates that partitioning is dynamic and
	// partial, one of IHK's core capabilities.
	appCores := host.Topo.AppCores()
	if err := mgr.ReserveCPUs(appCores[:36]); err != nil {
		log.Fatal(err)
	}
	if err := mgr.ReserveMemory(2 << 30); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IHK reserved %d cores and %d GiB from the running Linux (no reboot)\n",
		len(mgr.ReservedCPUs()), mgr.ReservedMemoryBytes()>>30)

	part, err := mgr.Boot()
	if err != nil {
		log.Fatal(err)
	}
	lwk, err := mckernel.Boot(host, part, mckernel.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("McKernel booted on cores %v..%v\n\n", part.Cores[0], part.Cores[len(part.Cores)-1])

	// Spawn a 12-thread process; its proxy appears on the Linux side.
	proc, err := lwk.Spawn("a.out", 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spawned %s with %d threads; proxy %q pinned to Linux cores %s\n\n",
		proc.Name, len(proc.Threads), proc.Proxy().Task.Name, proc.Proxy().Task.Affinity)

	// System-call routing: the performance-sensitive set is served locally,
	// the rest delegated over IKC to the proxy.
	fmt.Printf("system-call routing (LWK local vs delegated to Linux):\n")
	for _, sc := range []kernel.Syscall{
		kernel.SysMmap, kernel.SysFutex, kernel.SysGetpid,
		kernel.SysOpen, kernel.SysIoctl, kernel.SysWrite,
	} {
		where := "delegated"
		if sc.PerformanceSensitive() {
			where = "LWK-local"
		}
		fmt.Printf("  %-14s %-10s %8v  (Linux native: %v)\n",
			sc, where, lwk.SyscallCost(sc), host.SyscallCosts().Cost(sc))
	}

	// The cooperative scheduler: threads yield explicitly; no timer tick
	// ever preempts them (the no-noise property).
	sched := lwk.Scheduler
	core0 := part.Cores[0]
	t1, err := sched.Dispatch(core0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntick-less cooperative scheduling on core %d:\n", core0)
	fmt.Printf("  dispatched tid %d; queue depth now %d\n", t1.TID, sched.QueueLen(core0))
	if err := sched.Yield(t1); err != nil {
		log.Fatal(err)
	}
	t2, err := sched.Dispatch(core0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tid %d yielded; round robin dispatched tid %d\n", t1.TID, t2.TID)

	// PicoDriver: STAG registration without the ioctl delegation round trip.
	withPico := lwk.RDMARegistrationCost(1 << 20)
	noPico, err := mckernel.Boot(host, part, mckernel.Config{PicoDriver: false})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTofu STAG registration of 1 MiB (Sec. 5.1):\n")
	fmt.Printf("  PicoDriver fast path: %v\n", withPico)
	fmt.Printf("  offloaded ioctl:      %v\n", noPico.RDMARegistrationCost(1<<20))
	fmt.Printf("  native Linux:         %v\n", host.RDMARegistrationCost(1<<20))

	// Tear down: shut the LWK down and hand everything back to Linux.
	if err := mgr.Shutdown(); err != nil {
		log.Fatal(err)
	}
	if err := mgr.ReleaseMemory(); err != nil {
		log.Fatal(err)
	}
	if err := mgr.ReleaseCPUs(mgr.ReservedCPUs()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLWK shut down; all cores and memory returned to Linux\n")
}
