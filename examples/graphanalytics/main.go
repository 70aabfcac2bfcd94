// Graph analytics: the paper's motivating scenario. GraphBIG-class
// workloads (pagerank, bfs, sssp...) have huge footprints and hot vertex
// sets — exactly the case heterogeneous memory targets. This example runs
// the graph workloads across the platform ladder in planar mode and prints
// the speedup each Ohm-GPU mechanism contributes, reproducing the Figure 16
// story on the workloads that matter most.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	graphs := []string{"bfsdata", "bfstopo", "gctopo", "sssp"}
	ladder := []config.Platform{
		config.Hetero,  // electrical channels, controller-copied migration
		config.OhmBase, // optical channel
		config.AutoRW,  // + snarf-based auto-read/write
		config.OhmWOM,  // + swap & reverse-write over WOM dual routes
		config.OhmBW,   // + half-coupled-MRR transmitters (full bandwidth)
		config.Oracle,  // all-DRAM upper bound
	}

	fmt.Println("Graph analytics on the Ohm-GPU platform ladder (planar mode)")
	fmt.Printf("%-10s", "workload")
	for _, p := range ladder {
		fmt.Printf(" %10s", p)
	}
	fmt.Println("  (IPC normalized to Hetero)")

	for _, name := range graphs {
		w, ok := config.WorkloadByName(name)
		if !ok {
			log.Fatalf("unknown workload %q", name)
		}
		base := 0.0
		fmt.Printf("%-10s", name)
		for _, p := range ladder {
			cfg := config.Default(p, config.Planar)
			cfg.MaxInstructions = 6000
			rep, _, err := core.Run(nil, cfg, w, core.DefaultRun)
			if err != nil {
				log.Fatal(err)
			}
			if p == config.Hetero {
				base = rep.IPC
			}
			fmt.Printf(" %10.2f", rep.IPC/base)
		}
		fmt.Println()
	}
	fmt.Println("\nReading the row left to right shows each mechanism's contribution:")
	fmt.Println("optical channel, auto-read/write, dual-route swap, and full-bandwidth")
	fmt.Println("half-coupled transmitters — with the all-DRAM Oracle as the ceiling.")
}
