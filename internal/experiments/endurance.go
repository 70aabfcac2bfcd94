package experiments

import (
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
)

// EnduranceRow is one platform's XPoint lifetime projection.
type EnduranceRow struct {
	Platform    config.Platform
	MaxWear     uint64  // worst physical line's writes during the run
	TotalWrites uint64  // all XPoint media writes
	WearRatio   float64 // max / mean wear (1.0 = perfectly levelled)
	// LifetimeRuns is work-normalized lifetime: how many executions of this
	// workload the worst physical line survives before hitting the
	// endurance budget. (Wall-clock projections would reward *slow*
	// platforms, which is backwards.)
	LifetimeRuns float64
}

// EnduranceResult projects XPoint lifetime under each platform — the
// paper's Section III motivation: "DRAM in Ohm-GPU also accommodates
// write-intensive data, which can significantly reduce the number of
// writes on XPoint, thereby extending the lifetime of XPoint."
type EnduranceResult struct {
	Workload string
	Rows     []EnduranceRow
}

// runWear executes one cell and exports the per-line XPoint wear summary
// through the report's Extra map so the rows survive the batch boundary
// (and the result cache).
func runWear(cfg config.Config, workload string) (stats.Report, error) {
	sys, err := core.NewSystemIn(nil, cfg)
	if err != nil {
		return stats.Report{}, err
	}
	rep, err := sys.RunWorkload(workload)
	if err != nil {
		return stats.Report{}, err
	}
	var maxWear, total uint64
	var lines int
	for mc := 0; mc < cfg.GPU.MemCtrls; mc++ {
		xc := sys.Mem.XPointAt(mc)
		if xc == nil {
			continue
		}
		ws := xc.Wear()
		if ws.Max > maxWear {
			maxWear = ws.Max
		}
		total += ws.Total
		lines += ws.Lines
	}
	rep.Extra[ablExtraPrefix+"max-wear"] = float64(maxWear)
	rep.Extra[ablExtraPrefix+"total-writes"] = float64(total)
	rep.Extra[ablExtraPrefix+"wear-lines"] = float64(lines)
	return rep, nil
}

// Endurance measures per-line wear across the heterogeneous platforms —
// one parallel batch — and projects lifetime: endurance budget /
// worst-line write rate.
func Endurance(o Options, workload string) (*EnduranceResult, error) {
	platforms := []config.Platform{config.Hetero, config.OhmBase, config.OhmBW}
	var cells []batch.Cell
	for _, p := range platforms {
		c := o.cell(p, config.Planar, workload)
		c.Salt, c.RunFn = "endurance-wear", runWear
		cells = append(cells, c)
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	res := &EnduranceResult{Workload: workload}
	for i, p := range platforms {
		rep := reps[i]
		maxWear := uint64(rep.Extra[ablExtraPrefix+"max-wear"])
		total := uint64(rep.Extra[ablExtraPrefix+"total-writes"])
		lines := rep.Extra[ablExtraPrefix+"wear-lines"]
		mean := 0.0
		if lines > 0 {
			mean = float64(total) / lines
		}
		ratio := 0.0
		if mean > 0 {
			ratio = float64(maxWear) / mean
		}
		runs := 0.0
		if maxWear > 0 {
			runs = float64(cells[i].Config.XPoint.WearLimit) / float64(maxWear)
		}
		res.Rows = append(res.Rows, EnduranceRow{
			Platform:     p,
			MaxWear:      maxWear,
			TotalWrites:  total,
			WearRatio:    ratio,
			LifetimeRuns: runs,
		})
	}
	return res, nil
}

// Render prints the work-normalized lifetime projection relative to the
// first row (Hetero).
func (r *EnduranceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XPoint endurance projection (planar, %s)\n", r.Workload)
	fmt.Fprintf(&b, "%-9s %10s %12s %10s %14s\n", "platform", "max-wear", "total-wr", "max/mean", "rel-lifetime")
	base := 0.0
	if len(r.Rows) > 0 {
		base = r.Rows[0].LifetimeRuns
	}
	for _, row := range r.Rows {
		life := "n/a"
		if row.LifetimeRuns > 0 && base > 0 {
			life = fmt.Sprintf("%.2fx", row.LifetimeRuns/base)
		}
		fmt.Fprintf(&b, "%-9s %10d %12d %10.1f %14s\n",
			row.Platform, row.MaxWear, row.TotalWrites, row.WearRatio, life)
	}
	return b.String()
}
