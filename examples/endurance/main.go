// Endurance: XPoint wears out under writes (Section II-C), which is why the
// logic-layer controller implements Start-Gap wear levelling and why DRAM
// absorbs write-intensive data. This example projects the XPoint lifetime
// of the write-heaviest Table II workload (backp, 47% writes) across
// platforms and shows Start-Gap's effect on the worst physical line.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	r, err := experiments.Endurance(experiments.Options{MaxInstructions: 6000}, "backp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Render())

	// Start-Gap on vs off, same platform: wear concentration.
	fmt.Println("Start-Gap's effect on the worst line (Ohm-BW, backp):")
	for _, k := range []int{0, 100} {
		cfg := config.Default(config.OhmBW, config.Planar)
		cfg.XPoint.StartGapK = k
		cfg.MaxInstructions = 6000
		sys, err := core.NewSystemIn(nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.RunWorkload("backp"); err != nil {
			log.Fatal(err)
		}
		var maxWear uint64
		for mc := 0; mc < cfg.GPU.MemCtrls; mc++ {
			if xc := sys.Mem.XPointAt(mc); xc != nil {
				if w := xc.Wear().Max; w > maxWear {
					maxWear = w
				}
			}
		}
		label := fmt.Sprintf("K=%d", k)
		if k == 0 {
			label = "disabled"
		}
		fmt.Printf("  start-gap %-9s -> max wear %d writes\n", label, maxWear)
	}
}
