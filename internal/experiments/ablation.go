package experiments

import (
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file holds the ablation studies DESIGN.md calls out: design choices
// the paper fixes that our implementation exposes as knobs. Each ablation
// runs the Ohm-BW planar platform with one knob varied and reports the IPC
// and wear/latency consequences. Every ablation submits its settings to the
// batch runner as one parallel sweep; settings that need simulator
// internals (wear counters, MSHR merges, VC borrows) run as core probe
// variants, which export them through the report's Extra map under
// core.ProbePrefix so they survive the result cache.

// AblationRow is one knob setting's outcome.
type AblationRow struct {
	Setting     string
	IPC         float64
	MeanLatency sim.Time
	Migrations  uint64
	Extra       map[string]float64
}

// AblationResult is a titled list of knob settings.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-22s %10s %14s %12s\n", "setting", "IPC", "mem-latency", "migrations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %10.3f %14s %12d", row.Setting, row.IPC, row.MeanLatency, row.Migrations)
		for _, k := range sortedKeys(row.Extra) {
			fmt.Fprintf(&b, " %s=%.3g", k, row.Extra[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ablationCell is one knob setting awaiting execution.
type ablationCell struct {
	setting string
	cell    batch.Cell
}

// ablationResult runs the settings' cells as one parallel batch on the
// options' engine and folds each report into a row, extracting the
// namespaced ablation extras.
func ablationResult(o Options, title string, acs []ablationCell) (*AblationResult, error) {
	cells := make([]batch.Cell, len(acs))
	for i, ac := range acs {
		cells[i] = ac.cell
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: title}
	for i, rep := range reps {
		extra := map[string]float64{}
		for k, v := range rep.Extra {
			if name, ok := strings.CutPrefix(k, core.ProbePrefix); ok {
				extra[name] = v
			}
		}
		res.Rows = append(res.Rows, AblationRow{
			Setting:     acs[i].setting,
			IPC:         rep.IPC,
			MeanLatency: rep.MeanLatency,
			Migrations:  rep.Migrations,
			Extra:       extra,
		})
	}
	return res, nil
}

// ohmBWCell builds an Ohm-BW/planar cell with the knob applied by mutate.
func ohmBWCell(o Options, workload string, mutate func(*config.Config)) batch.Cell {
	cfg := config.Default(config.OhmBW, config.Planar)
	mutate(&cfg)
	o.apply(&cfg)
	return batch.Cell{Workload: workload, Config: cfg}
}

// AblationHotThreshold sweeps the planar hot-page detector's threshold:
// migrate too eagerly and swaps saturate the memory route; too lazily and
// the hot set stays in XPoint.
func AblationHotThreshold(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		th := th
		acs = append(acs, ablationCell{
			setting: fmt.Sprintf("threshold=%d", th),
			cell:    ohmBWCell(o, workload, func(c *config.Config) { c.Memory.HotThreshold = th }),
		})
	}
	return ablationResult(o, "Ablation — planar hot-page threshold (Ohm-BW, "+workload+")", acs)
}

// AblationPageSize sweeps the migration granularity: bigger pages amortize
// command overhead but move more dead bytes per swap.
func AblationPageSize(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, pb := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		pb := pb
		acs = append(acs, ablationCell{
			setting: fmt.Sprintf("page=%dKiB", pb>>10),
			cell:    ohmBWCell(o, workload, func(c *config.Config) { c.Memory.PageBytes = pb }),
		})
	}
	return ablationResult(o, "Ablation — migration page size (Ohm-BW, planar, "+workload+")", acs)
}

// AblationStartGap compares Start-Gap wear levelling against a static
// layout: performance cost vs maximum wear.
func AblationStartGap(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, k := range []int{0, 10, 100, 1000} {
		k := k
		setting := fmt.Sprintf("K=%d", k)
		if k == 0 {
			setting = "disabled"
		}
		cell := ohmBWCell(o, workload, func(c *config.Config) { c.XPoint.StartGapK = k })
		cell.Variant = core.MaxWearProbe
		acs = append(acs, ablationCell{setting: setting, cell: cell})
	}
	return ablationResult(o, "Ablation — Start-Gap wear levelling (Ohm-BW, planar, "+workload+")", acs)
}

// AblationMSHR quantifies L2 miss coalescing.
func AblationMSHR(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, entries := range []int{0, 16, 64, 256} {
		entries := entries
		setting := fmt.Sprintf("entries=%d", entries)
		if entries == 0 {
			setting = "disabled"
		}
		cell := ohmBWCell(o, workload, func(c *config.Config) { c.GPU.MSHREntries = entries })
		cell.Variant = core.MergesProbe
		acs = append(acs, ablationCell{setting: setting, cell: cell})
	}
	return ablationResult(o, "Ablation — L2 MSHR coalescing (Ohm-BW, planar, "+workload+")", acs)
}

// AblationChannelDivision compares static wavelength division (Table I's
// default) against the dynamic borrowing strategy of [38].
func AblationChannelDivision(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, dyn := range []bool{false, true} {
		dyn := dyn
		setting := "static"
		cell := ohmBWCell(o, workload, func(c *config.Config) { c.Optical.DynamicDivision = dyn })
		if dyn {
			setting = "dynamic"
			cell.Variant = core.BorrowsProbe
		}
		acs = append(acs, ablationCell{setting: setting, cell: cell})
	}
	return ablationResult(o, "Ablation — wavelength division strategy (Ohm-BW, planar, "+workload+")", acs)
}

// AblationNoC compares the constant-latency interconnect against the
// contention-aware crossbar (internal/noc).
func AblationNoC(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, detailed := range []bool{false, true} {
		detailed := detailed
		setting := "constant-latency"
		if detailed {
			setting = "crossbar"
		}
		acs = append(acs, ablationCell{
			setting: setting,
			cell:    ohmBWCell(o, workload, func(c *config.Config) { c.GPU.NoCDetailed = detailed }),
		})
	}
	return ablationResult(o, "Ablation — SM<->L2 interconnect model (Ohm-BW, planar, "+workload+")", acs)
}

// AblationPhases stresses migration with phase-changing hot sets: the
// paper's workloads have static hot sets; iterative algorithms rotate
// theirs every superstep, keeping migration active in steady state.
func AblationPhases(o Options, workload string) (*AblationResult, error) {
	var acs []ablationCell
	for _, phases := range []int{1, 2, 4, 8} {
		for _, p := range []config.Platform{config.OhmBase, config.OhmBW} {
			cfg := config.Default(p, config.Planar)
			o.apply(&cfg)
			acs = append(acs, ablationCell{
				setting: fmt.Sprintf("phases=%d/%s", phases, p),
				cell:    batch.Cell{Workload: workload, Config: cfg, Variant: core.Phased(phases)},
			})
		}
	}
	return ablationResult(o, "Ablation — phase-changing hot sets (Ohm-BW vs Ohm-base, planar, "+workload+")", acs)
}
