// Command ohmcompare runs one workload across all seven platforms in both
// memory modes and prints a one-line summary per platform — the quickest
// way to see the paper's platform ladder on a given workload.
//
// Usage:
//
//	ohmcompare [workload]   # default pagerank
package main

import (
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	wl := "pagerank"
	if len(os.Args) > 1 {
		wl = os.Args[1]
	}
	for _, m := range config.AllModes() {
		fmt.Println("== mode:", m, "workload:", wl)
		for _, p := range config.AllPlatforms() {
			cfg := config.Default(p, m)
			sys, err := core.NewSystemIn(nil, cfg)
			if err != nil {
				panic(err)
			}
			rep, err := sys.RunWorkload(wl)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-9s ipc=%.3f lat=%s copy=%.2f migr=%d xpR=%d reqs=%d",
				p, rep.IPC, rep.MeanLatency, rep.CopyFraction, rep.Migrations,
				sys.Mem.XPointReads, rep.MemRequests)
			if n := rep.Extra["dram-count"]; n > 0 {
				fmt.Printf(" dramLat=%.0fns(%0.f)", rep.Extra["dram-lat-sum"]/n/1000, n)
			}
			if n := rep.Extra["xp-count"]; n > 0 {
				fmt.Printf(" xpLat=%.0fns(%.0f)", rep.Extra["xp-lat-sum"]/n/1000, n)
			}
			if v := rep.Extra["conflict-wait"]; v > 0 {
				fmt.Printf(" confl=%.0fus", v/1e6)
			}
			fmt.Println()
		}
	}
}
