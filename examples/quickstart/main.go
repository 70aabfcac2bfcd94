// Quickstart: build the paper's best platform (Ohm-BW, planar mode), run
// the pagerank workload, and print the headline numbers. This is the
// smallest complete use of the library's public API:
//
//	config.Default   -> a Table I configuration for a platform + mode
//	core.NewSystemIn -> an assembled GPU + Ohm memory system (nil: a new run state)
//	RunWorkload      -> execute a Table II workload, get a stats.Report
//	core.Run         -> build and run in one call when only the report matters
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 8000 // shorten the default 20k-instruction run

	sys, err := core.NewSystemIn(nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.RunWorkload("pagerank")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Ohm-GPU quickstart — Ohm-BW, planar memory, pagerank")
	fmt.Printf("  simulated time   %s\n", rep.Elapsed)
	fmt.Printf("  IPC              %.3f\n", rep.IPC)
	fmt.Printf("  memory latency   %s mean, %s p99\n", rep.MeanLatency, rep.P99Latency)
	fmt.Printf("  page migrations  %d (all via the optical dual routes)\n", rep.Migrations)
	fmt.Printf("  channel copy     %.1f%% of data-route bandwidth\n", 100*rep.CopyFraction)

	// Compare against the DRAM-only baseline in one call.
	pagerank, ok := config.WorkloadByName("pagerank")
	if !ok {
		log.Fatal("pagerank is not a Table II workload")
	}
	base, _, err := core.Run(nil, withInstr(config.Default(config.OhmBase, config.Planar), 8000), pagerank, core.DefaultRun)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  speedup vs Ohm-base: %.2fx\n", rep.IPC/base.IPC)
}

func withInstr(c config.Config, n int) config.Config {
	c.MaxInstructions = n
	return c
}
