// Waveguide scaling: the Figure 20a sensitivity study as a library
// program. A single optical waveguide already matches the six electrical
// channels' aggregate bandwidth under the same area budget; adding
// waveguides multiplies channel bandwidth, which the electrical design
// cannot do. This sweeps 1-8 waveguides on Ohm-base and Ohm-BW and prints
// performance relative to the electrical Hetero platform.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
)

func main() {
	const workload = "pagerank"
	const instr = 6000
	w, ok := config.WorkloadByName(workload)
	if !ok {
		log.Fatalf("unknown workload %q", workload)
	}

	hetCfg := config.Default(config.Hetero, config.Planar)
	hetCfg.MaxInstructions = instr
	het, _, err := core.Run(nil, hetCfg, w, core.DefaultRun)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Performance vs optical waveguides (%s, planar, norm. to Hetero)\n\n", workload)
	fmt.Printf("%-12s %12s %12s\n", "waveguides", "Ohm-base", "Ohm-BW")
	for wg := 1; wg <= 8; wg++ {
		row := make(map[config.Platform]float64, 2)
		for _, p := range []config.Platform{config.OhmBase, config.OhmBW} {
			cfg := config.Default(p, config.Planar)
			cfg.Optical.Waveguides = wg
			cfg.MaxInstructions = instr
			rep, _, err := core.Run(nil, cfg, w, core.DefaultRun)
			if err != nil {
				log.Fatal(err)
			}
			row[p] = rep.IPC / het.IPC
		}
		fmt.Printf("%-12d %12.3f %12.3f\n", wg, row[config.OhmBase], row[config.OhmBW])
	}
	fmt.Println("\nOhm-base with several waveguides overtakes the electrical design on")
	fmt.Println("raw bandwidth alone; Ohm-BW adds the dual-route migration machinery")
	fmt.Println("on top (Section VI-B).")
}
