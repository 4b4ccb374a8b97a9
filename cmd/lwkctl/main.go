// Command lwkctl drives the IHK/McKernel management flow on a simulated
// node, mirroring the real stack's ihkconfig/ihkosctl tooling: reserve CPU
// cores and memory from the running Linux, boot the LWK, spawn a process,
// print the partition status, and tear everything down.
//
// Usage:
//
//	lwkctl [-platform fugaku|ofp] [-cores N] [-mem-gb G] [-spawn name:threads]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"mkos/cmd/internal/runner"
	"mkos/internal/cluster"
	"mkos/internal/ihk"
	"mkos/internal/kernel"
	"mkos/internal/linux"
	"mkos/internal/mckernel"
)

var (
	platform = flag.String("platform", "fugaku", "platform: fugaku or ofp")
	cores    = flag.Int("cores", 0, "application cores to reserve (0 = all)")
	memGB    = flag.Int64("mem-gb", 2, "memory to reserve per NUMA domain, GiB")
	spawn    = flag.String("spawn", "a.out:4", "process to spawn as name:threads")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "lwkctl", "shutting down the LWK and returning its resources to Linux", run)
}

func run(ctx context.Context, out *bufio.Writer) error {
	var p *cluster.Platform
	switch *platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp":
		p = cluster.OFP()
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}

	host, err := linux.NewKernel(p.NewTopology(), p.Tuning, p.MemBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host linux booted: %s, %d cores (%d app + %d assistant)\n",
		host.Name(), host.Topo.NumCores(), len(host.Topo.AppCores()), len(host.Topo.AssistantCores()))

	mgr := ihk.NewManager(host)

	// An interrupt stops the management flow at the next stage boundary and
	// returns every reserved resource to Linux — a half-torn-down partition
	// is exactly the failure mode the real ihkconfig tooling guards against.
	// checkpoint is called between stages; teardown inspects how far the
	// flow got.
	checkpoint := func(stage string) error {
		if ctx.Err() == nil {
			return nil
		}
		if mgr.Booted() {
			if err := mgr.Shutdown(); err != nil {
				log.Printf("shutdown: %v", err)
			}
		}
		if mgr.ReservedMemoryBytes() > 0 {
			if err := mgr.ReleaseMemory(); err != nil {
				log.Printf("release memory: %v", err)
			}
		}
		if cpus := mgr.ReservedCPUs(); len(cpus) > 0 {
			if err := mgr.ReleaseCPUs(cpus); err != nil {
				log.Printf("release cpus: %v", err)
			}
		}
		return fmt.Errorf("interrupted before %s: resources returned to linux", stage)
	}

	if err := checkpoint("cpu/memory reservation"); err != nil {
		return err
	}
	appCores := host.Topo.AppCores()
	n := *cores
	if n <= 0 || n > len(appCores) {
		n = len(appCores)
	}
	if err := mgr.ReserveCPUs(appCores[:n]); err != nil {
		return err
	}
	if err := mgr.ReserveMemory(*memGB << 30); err != nil {
		return err
	}
	fmt.Fprintf(out, "ihk: reserved cpus %v (%d), %d GiB total\n",
		compact(mgr.ReservedCPUs()), n, mgr.ReservedMemoryBytes()>>30)

	if err := checkpoint("LWK boot"); err != nil {
		return err
	}
	part, err := mgr.Boot()
	if err != nil {
		return err
	}
	lwk, err := mckernel.Boot(host, part, mckernel.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mckernel: booted (%s), %d MiB LWK-managed memory\n",
		lwk.Name(), lwk.LWKMem.TotalBytes()>>20)

	if err := checkpoint("process spawn"); err != nil {
		return err
	}
	name, threads, err := parseSpawn(*spawn)
	if err != nil {
		return err
	}
	proc, err := lwk.Spawn(name, threads)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spawned pid %d (%s) with %d threads; proxy on linux cores %s\n",
		proc.PID, proc.Name, len(proc.Threads), proc.Proxy().Task.Affinity)

	fmt.Fprintf(out, "\nstatus:\n")
	fmt.Fprintf(out, "  booted            %v\n", mgr.Booted())
	fmt.Fprintf(out, "  lwk cores         %d\n", len(part.Cores))
	fmt.Fprintf(out, "  lwk memory        %d MiB (%d MiB allocated)\n",
		lwk.LWKMem.TotalBytes()>>20, lwk.LWKMem.AllocatedBytes()>>20)
	fmt.Fprintf(out, "  syscall mmap      %v (linux: %v)\n",
		lwk.SyscallCost(kernel.SysMmap), host.SyscallCosts().Cost(kernel.SysMmap))
	fmt.Fprintf(out, "  syscall open      %v (linux: %v)\n",
		lwk.SyscallCost(kernel.SysOpen), host.SyscallCosts().Cost(kernel.SysOpen))
	fmt.Fprintf(out, "  ikc messages      %d\n", lwk.IKC.Messages())

	if err := lwk.Exit(proc); err != nil {
		return err
	}
	if err := mgr.Shutdown(); err != nil {
		return err
	}
	if err := mgr.ReleaseMemory(); err != nil {
		return err
	}
	if err := mgr.ReleaseCPUs(mgr.ReservedCPUs()); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nshutdown complete; all resources returned to linux\n")
	return nil
}

// parseSpawn splits "name:threads".
func parseSpawn(s string) (string, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("bad -spawn %q, want name:threads", s)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("bad thread count in %q", s)
	}
	return parts[0], n, nil
}

// compact renders a sorted core list as ranges.
func compact(cores []int) string {
	m := kernel.NewCPUMask(cores...)
	return m.String()
}
