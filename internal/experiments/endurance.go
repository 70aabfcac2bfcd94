package experiments

import (
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
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

// Endurance measures per-line wear across the heterogeneous platforms —
// one parallel batch of core.WearProbe cells, which export the wear
// summary through the report's Extra map so the rows survive the batch
// boundary and the result cache — and projects lifetime: endurance
// budget / worst-line write rate.
func Endurance(o Options, workload string) (*EnduranceResult, error) {
	platforms := []config.Platform{config.Hetero, config.OhmBase, config.OhmBW}
	var cells []batch.Cell
	for _, p := range platforms {
		c := o.cell(p, config.Planar, workload)
		c.Variant = core.WearProbe
		cells = append(cells, c)
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	res := &EnduranceResult{Workload: workload}
	for i, p := range platforms {
		rep := reps[i]
		maxWear := uint64(rep.Extra[core.ProbePrefix+"max-wear"])
		total := uint64(rep.Extra[core.ProbePrefix+"total-writes"])
		lines := rep.Extra[core.ProbePrefix+"wear-lines"]
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
