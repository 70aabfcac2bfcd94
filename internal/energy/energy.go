// Package energy implements the power models of Section VI ("Workloads and
// energy model"): an empirical DRAM model (static power plus per-access
// dynamic energy, after GPUWattch [37]), XPoint average/burst energy from
// the Optane measurements [28], the optical channel model (laser static
// power plus 200 fJ/bit MRR tuning, Table I), and electrical channel DMA
// energy. Channel transfer energies are accumulated incrementally by the
// channel models; Finalize adds the time- and access-proportional terms.
package energy

import (
	"repro/internal/config"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Model holds the coefficient set. Defaults are first-order values with the
// right relative magnitudes; Figure 19 reports normalized breakdowns, so
// ratios — not absolute joules — are what the reproduction preserves.
type Model struct {
	// DRAMStaticMWPerGB is background (refresh + leakage) power per GB.
	DRAMStaticMWPerGB float64
	// DRAMDynamicPJPerAccess is activation+IO energy per line access.
	DRAMDynamicPJPerAccess float64
	// XPointReadPJ / XPointWritePJ are per-line-access energies. XPoint has
	// no refresh, so there is no static term (Section I).
	XPointReadPJ  float64
	XPointWritePJ float64
}

// Default returns the coefficient set used by all experiments.
func Default() Model {
	return Model{
		// Static power is per unscaled chip count: the 256x capacity
		// scale-down shrinks simulated time and bytes but not the DIMMs'
		// background draw, so the per-GB coefficient carries the scale.
		DRAMStaticMWPerGB:      5000,
		DRAMDynamicPJPerAccess: 1000, // ~8 pJ/bit x 128B line
		XPointReadPJ:           6400,
		XPointWritePJ:          19200, // writes ~3x read energy [28]
	}
}

// Counters are the run totals Finalize needs.
type Counters struct {
	Elapsed      sim.Time
	DRAMReads    uint64
	DRAMWrites   uint64
	XPointReads  uint64
	XPointWrites uint64
}

// Finalize adds the time- and access-proportional energy components to the
// collector:
//
//	"dram-static"  — DRAM background power x elapsed time
//	"dram-dynamic" — per-access DRAM energy
//	"xpoint"       — per-access XPoint energy
//	"opti-network" — laser static power x elapsed (tuning energy was added
//	                 incrementally by the channel)
//
// Electrical platforms get no laser term; their transfer energy is already
// under "elec-channel"/"dma". Each term is one addition through an
// interned handle. On optical platforms the laser term adds onto the
// channel's tuning sum; a single floating-point addition is commutative,
// so which of the two comes first does not change the total.
func (m Model) Finalize(col *stats.Collector, cfg *config.Config, c Counters) {
	add := func(component string, pj float64) { col.AddEnergyH(col.InternEnergy(component), pj) }
	seconds := c.Elapsed.Seconds()

	dramGB := float64(cfg.Memory.DRAMBytes) / float64(1<<30)
	// mW x s = mJ = 1e9 pJ.
	add("dram-static", m.DRAMStaticMWPerGB*dramGB*seconds*1e9)
	add("dram-dynamic", float64(c.DRAMReads+c.DRAMWrites)*m.DRAMDynamicPJPerAccess)

	if cfg.Platform.Heterogeneous() {
		add("xpoint", float64(c.XPointReads)*m.XPointReadPJ+float64(c.XPointWrites)*m.XPointWritePJ)
	}

	if cfg.Platform.Optical() {
		pm := optical.NewPowerModel(cfg.Optical)
		add("opti-network", pm.LaserPowerMW()*seconds*1e9)
	}
}

// BreakdownFractions normalizes a report's energy components to fractions
// of the total, in the order Figure 19 stacks them.
func BreakdownFractions(r stats.Report) map[string]float64 {
	total := r.TotalEnergyPJ()
	out := make(map[string]float64, len(r.EnergyPJ))
	if total <= 0 {
		return out
	}
	for k, v := range r.EnergyPJ {
		out[k] = v / total
	}
	return out
}
