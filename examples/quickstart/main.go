// Quickstart: boot a simulated Fugaku node under both operating systems,
// measure OS noise with FWQ, and compare one application end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
)

func main() {
	log.SetFlags(0)
	platform := cluster.Fugaku()

	// 1. Boot one node under native Linux and one under IHK/McKernel.
	linuxNode, err := platform.NewNode(cluster.Linux)
	if err != nil {
		log.Fatal(err)
	}
	mckNode, err := platform.NewNode(cluster.McKernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s: %d app cores under Linux, %d under McKernel (via IHK)\n\n",
		platform.Name, len(linuxNode.AppCores()), len(mckNode.AppCores()))

	// 2. Measure OS noise with the FWQ benchmark on both.
	for _, node := range []*cluster.Node{linuxNode, mckNode} {
		cfg := apps.FWQConfig{
			Work: 6500 * time.Microsecond, Duration: 30 * time.Second,
			Cores: node.AppCores(),
		}
		a, err := apps.FWQNoise(cfg, node.OS(), 1, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("FWQ under %-16s max noise %8v, noise rate %.3g\n",
			node.OS().Name()+":", a.MaxNoise, a.Rate)
	}

	// 3. Run the GAMERA proxy at 8,192 nodes under both OSes and compare.
	app, err := apps.GAMERA(apps.OnFugaku)
	if err != nil {
		log.Fatal(err)
	}
	linuxMachine, _, err := platform.Machine(cluster.Linux, app.Geometry)
	if err != nil {
		log.Fatal(err)
	}
	mckMachine, _, err := platform.Machine(cluster.McKernel, app.Geometry)
	if err != nil {
		log.Fatal(err)
	}
	ra, rb, rel, err := bsp.Compare(app.Workload, linuxMachine, mckMachine, 8192, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGAMERA at 8,192 nodes:\n")
	fmt.Printf("  linux    %12v (init %v)\n", ra.Runtime, ra.Breakdown.Init)
	fmt.Printf("  mckernel %12v (init %v)\n", rb.Runtime, rb.Breakdown.Init)
	fmt.Printf("  relative performance: %.2fx (paper: up to 1.29x, Sec. 6.4)\n", rel)
}
