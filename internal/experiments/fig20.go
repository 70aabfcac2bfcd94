package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/optical"
)

// Fig20aRow is one point of the waveguide sensitivity study.
type Fig20aRow struct {
	Waveguides int
	OhmBase    float64 // geomean IPC norm. to Hetero
	OhmBW      float64
}

// Fig20aResult is Figure 20a: performance vs the number of optical
// waveguides, normalized to the electrical Hetero platform.
type Fig20aResult struct{ Rows []Fig20aRow }

// Fig20a reproduces Figure 20a for waveguide counts 1..8 in planar mode
// (where channel bandwidth is the binding resource). The Hetero reference
// and the full waveguide sweep are submitted as one parallel batch.
func Fig20a(o Options) (*Fig20aResult, error) {
	planar := []config.MemMode{config.Planar}
	var cells []batch.Cell
	for _, w := range o.workloads() {
		cells = append(cells, o.cell(config.Hetero, config.Planar, w))
	}
	nHet := len(cells)
	sweep := o.spec(planar, []config.Platform{config.OhmBase, config.OhmBW})
	sweep.Overrides = batch.Overrides{"optical.waveguides": {1, 2, 3, 4, 5, 6, 7, 8}}
	sweepCells, err := sweep.Cells()
	if err != nil {
		return nil, err
	}
	cells = append(cells, sweepCells...)

	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	het := make(map[string]float64, nHet)
	for i := 0; i < nHet; i++ {
		het[cells[i].Workload] = reps[i].IPC
	}

	// Geomean of IPC/Hetero per (waveguides, platform) series.
	type series struct {
		wg int
		p  config.Platform
	}
	prod := make(map[series]float64)
	n := make(map[series]int)
	for i, c := range sweepCells {
		if het[c.Workload] <= 0 {
			continue
		}
		s := series{c.Config.Optical.Waveguides, c.Config.Platform}
		if _, ok := prod[s]; !ok {
			prod[s] = 1
		}
		prod[s] *= reps[nHet+i].IPC / het[c.Workload]
		n[s]++
	}
	gm := func(s series) float64 {
		if n[s] == 0 {
			return 0
		}
		return math.Pow(prod[s], 1/float64(n[s]))
	}
	res := &Fig20aResult{}
	for wg := 1; wg <= 8; wg++ {
		res.Rows = append(res.Rows, Fig20aRow{
			Waveguides: wg,
			OhmBase:    gm(series{wg, config.OhmBase}),
			OhmBW:      gm(series{wg, config.OhmBW}),
		})
	}
	return res, nil
}

// Render prints the sensitivity series.
func (r *Fig20aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 20a — performance vs optical waveguides (norm. to Hetero, planar)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "waveguides", "Ohm-base", "Ohm-BW")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d %12.3f %12.3f\n", row.Waveguides, row.OhmBase, row.OhmBW)
	}
	return b.String()
}

// Fig20bRow is one BER measurement of Figure 20b.
type Fig20bRow struct {
	Platform config.Platform
	Path     optical.PathKind
	BER      float64
	Meets    bool
}

// Fig20bResult is Figure 20b: bit error rates of the optical functions per
// platform against the 1e-15 reliability requirement.
type Fig20bResult struct{ Rows []Fig20bRow }

// Fig20b evaluates the Table I power model for the paths each platform
// exercises, with the platform's laser boost applied (Section VI-B).
func Fig20b() *Fig20bResult {
	cases := []struct {
		p     config.Platform
		paths []optical.PathKind
	}{
		{config.OhmBase, []optical.PathKind{optical.PathReadWrite}},
		{config.OhmWOM, []optical.PathKind{optical.PathReadWrite, optical.PathAutoRW, optical.PathSwapWOM}},
		{config.OhmBW, []optical.PathKind{optical.PathReadWrite, optical.PathAutoRW, optical.PathSwapBW}},
	}
	res := &Fig20bResult{}
	for _, c := range cases {
		cfg := config.Default(c.p, config.Planar)
		pm := optical.NewPowerModel(cfg.Optical)
		for _, path := range c.paths {
			res.Rows = append(res.Rows, Fig20bRow{
				Platform: c.p,
				Path:     path,
				BER:      pm.BER(path),
				Meets:    pm.MeetsReliability(path),
			})
		}
	}
	return res
}

// Render prints the BER table.
func (r *Fig20bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 20b — bit error rates vs the 1e-15 reliability requirement\n")
	fmt.Fprintf(&b, "%-10s %-10s %12s %8s\n", "platform", "path", "BER", "meets")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-10s %12.2e %8v\n", row.Platform, row.Path, row.BER, row.Meets)
	}
	return b.String()
}
