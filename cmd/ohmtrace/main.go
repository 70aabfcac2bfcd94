// Command ohmtrace inspects the synthetic workload generator: it generates
// a Table II workload and prints its measured characteristics (APKI, read
// ratio, footprint, page popularity) so users can verify the calibration or
// explore the knobs.
//
// Usage:
//
//	ohmtrace                      # summary of all ten workloads
//	ohmtrace -workload pagerank   # one workload with a popularity histogram
//	ohmtrace -workload sssp -phases 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/config"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "", "single workload to inspect (default: all)")
	instr := flag.Int("instr", 8000, "instructions per warp")
	phases := flag.Int("phases", 1, "hot-set phases (see trace.GeneratePhased)")
	flag.Parse()

	cfg := config.Default(config.OhmBase, config.Planar)
	cfg.MaxInstructions = *instr

	if *workload == "" {
		fmt.Printf("%-10s %8s %8s %8s %12s %12s\n",
			"workload", "APKI", "rd", "instrs", "footprint", "uniq-pages")
		for _, w := range config.Workloads() {
			tr := trace.Generate(w, &cfg)
			s := tr.Measure()
			fmt.Printf("%-10s %8.1f %8.2f %8d %10.0fMB %12d\n",
				w.Name, s.APKI, s.ReadRatio, s.Instructions,
				float64(tr.Footprint)/(1<<20), s.UniquePages)
		}
		return
	}

	w, ok := config.WorkloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "ohmtrace: unknown workload %q (Table II: %v)\n",
			*workload, config.WorkloadNames())
		os.Exit(1)
	}
	tr := trace.GeneratePhased(w, &cfg, *phases)
	s := tr.Measure()
	fmt.Printf("workload    %s (%s)\n", w.Name, w.Suite)
	fmt.Printf("instrs      %d across %d warps\n", s.Instructions, len(tr.Warps))
	fmt.Printf("APKI        %.1f (Table II target %d)\n", s.APKI, w.APKI)
	fmt.Printf("read ratio  %.2f (target %.2f)\n", s.ReadRatio, w.ReadRatio)
	fmt.Printf("footprint   %.0f MB, %d unique pages touched\n",
		float64(tr.Footprint)/(1<<20), s.UniquePages)

	// Page popularity histogram: how concentrated is the stream?
	counts := map[uint64]int{}
	for _, wt := range tr.Warps {
		for _, op := range wt {
			if op.Kind != trace.Compute {
				counts[op.Addr/uint64(tr.PageBytes)]++
			}
		}
	}
	pop := make([]int, 0, len(counts))
	total := 0
	for _, c := range counts {
		pop = append(pop, c)
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(pop)))
	fmt.Println("page popularity (cumulative share of accesses):")
	for _, pct := range []int{1, 5, 10, 25, 50} {
		n := len(pop) * pct / 100
		if n == 0 {
			n = 1
		}
		sum := 0
		for _, c := range pop[:n] {
			sum += c
		}
		fmt.Printf("  top %2d%% of pages -> %5.1f%% of accesses\n",
			pct, 100*float64(sum)/float64(total))
	}
}
