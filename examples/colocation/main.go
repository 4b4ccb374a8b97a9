// colocation demonstrates the paper's closing future-work claim (Sec. 8):
// multi-kernels provide the performance isolation that multi-tenant compute
// nodes need. A bulk-synchronous primary application shares nodes with an
// in-situ analytics tenant under (a) Linux cgroup isolation and (b) an
// IHK/McKernel partition, and we measure what the tenant costs the primary.
//
//	go run ./examples/colocation
package main

import (
	"fmt"
	"log"
	"time"

	"mkos/internal/apps"
	"mkos/internal/core"
)

func main() {
	log.SetFlags(0)
	tenants := []core.Tenant{
		core.AnalyticsTenant(),
		{
			Name:                "io-heavy-checkpointer",
			BandwidthDemand:     80e9,
			KernelActivity:      400 * time.Microsecond,
			KernelActivityEvery: 100 * time.Millisecond,
		},
		{
			Name:                "bandwidth-hog",
			BandwidthDemand:     700e9,
			KernelActivity:      20 * time.Microsecond,
			KernelActivityEvery: 5 * time.Second,
		},
	}

	fmt.Printf("co-location cost of a tenant to GeoFEM on 256 Fugaku nodes\n")
	fmt.Printf("(primary slowdown vs running alone; 1.000 = perfect isolation)\n\n")
	fmt.Printf("%-24s %14s %14s\n", "tenant", "cgroups", "multikernel")
	for _, tenant := range tenants {
		cg, mk, err := core.CompareIsolation(apps.OnFugaku, "GeoFEM", 256, tenant, 9, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %14.4f %14.4f\n", tenant.Name, cg.Slowdown, mk.Slowdown)
	}
	fmt.Printf("\nKernel-noisy tenants hurt only the shared-kernel configuration;\n")
	fmt.Printf("bandwidth-bound tenants hurt both, because no OS partitions the\n")
	fmt.Printf("memory system (Sec. 4.2.2). This is the isolation argument of\n")
	fmt.Printf("Ouyang et al. [37] that the paper's conclusion builds on.\n")
}
