// Dual routes: the paper's core mechanism, observed directly. In two-level
// mode every DRAM-cache miss migrates a line (fill + possible dirty
// eviction). On the baseline those transfers ride the data route and
// compete with demand; with auto-read/write + reverse-write they move to
// the memory route created by the half-coupled MRRs, and the data route's
// migration share drops to zero (Figure 18's "fully eliminated" bar).
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	const workload = "bfsdata"
	fmt.Printf("Two-level mode, %s: where does migration traffic go?\n\n", workload)
	fmt.Printf("%-9s %12s %12s %14s %12s %10s\n",
		"platform", "migrations", "moved(MiB)", "dual-route", "copy-busy", "IPC")

	for _, p := range []config.Platform{config.OhmBase, config.AutoRW, config.OhmWOM, config.OhmBW} {
		cfg := config.Default(p, config.TwoLevel)
		cfg.MaxInstructions = 6000
		sys, err := core.NewSystemIn(nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.RunWorkload(workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %12d %12.1f %13.1f%% %11.1f%% %10.3f\n",
			p,
			rep.Migrations,
			float64(sys.Col.MigratedBytes)/(1<<20),
			pct(sys.Col.DualRouteBytes, rep.CopyBytes),
			100*rep.CopyFraction,
			rep.IPC)
	}

	fmt.Println("\nThe migration count is identical on every platform — the same misses")
	fmt.Println("happen — but the dual-route platforms carry those bytes on the memory")
	fmt.Println("route, so the data route's copy-busy fraction collapses to zero while")
	fmt.Println("IPC rises.")
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
