package experiments

import (
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
)

// fig3Config is the Origin-style configuration for the GPU-SSD system:
// buffer-granularity staging (256 KiB chunks) from the SSD, as applications
// actually stage working sets.
func fig3Config(o Options) config.Config {
	cfg := config.Default(config.Origin, config.Planar)
	cfg.Memory.PageBytes = 256 << 10
	// The motivation testbed uses the full 24GB K80 (scaled), unlike the
	// capacity-starved Origin of the main evaluation: working sets fit, and
	// the cost under study is staging them from the SSD. The kernel length
	// is fixed (one staging pass per run is the regime Figure 3a reports);
	// Options.MaxInstructions still overrides for quick tests.
	cfg.Memory.DRAMBytes = int64(24<<30) / config.MemScale
	cfg.MaxInstructions = 6000
	o.apply(&cfg)
	return cfg
}

// Fig3aRow is one bar of Figure 3a: the execution-time breakdown of a
// GPU-SSD integrated system into data movement (DMA), storage access, and
// GPU computation.
type Fig3aRow struct {
	Workload string
	DataMove float64 // fraction of total
	Storage  float64
	GPU      float64
}

// Fig3aResult is Figure 3a.
type Fig3aResult struct{ Rows []Fig3aRow }

// Fig3a reproduces the motivation study: a DRAM-only GPU whose working sets
// stage from an SSD over DMA. The paper measured a real GPU+Z-NAND testbed;
// the core.SSDHost variant attaches the ssd package's model as the host
// link of the Origin platform and reports its flash and DMA occupancy.
// GPU time is the execution time not covered by the storage and DMA
// pipelines (they overlap each other, so the union is approximated by the
// longer of the two plus the shorter's non-overlapped half).
func Fig3a(o Options) (*Fig3aResult, error) {
	var cells []batch.Cell
	for _, w := range o.workloads() {
		cells = append(cells, batch.Cell{Workload: w, Config: fig3Config(o), Variant: core.SSDHost})
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	res := &Fig3aResult{}
	for i, w := range o.workloads() {
		rep := reps[i]
		storage := rep.Extra["ssd-storage-s"]
		dma := rep.Extra["ssd-dma-s"]
		elapsed := rep.Elapsed.Seconds()
		// The flash and DMA stages pipeline: their union is bounded below
		// by the longer stage and above by the sum.
		union := storage
		if dma > union {
			union = dma
		}
		union += 0.5 * (storage + dma - union)
		if union > elapsed {
			union = elapsed
		}
		gpu := elapsed - union
		scale := union / (storage + dma)
		total := storage*scale + dma*scale + gpu
		if total <= 0 {
			total = 1
		}
		res.Rows = append(res.Rows, Fig3aRow{
			Workload: w,
			DataMove: dma * scale / total,
			Storage:  storage * scale / total,
			GPU:      gpu / total,
		})
	}
	return res, nil
}

// Render prints the breakdown rows.
func (r *Fig3aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3a — GPU-SSD integrated system execution breakdown\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "workload", "data-move", "storage", "gpu")
	var dm, st, gp float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1f%% %9.1f%%\n",
			row.Workload, 100*row.DataMove, 100*row.Storage, 100*row.GPU)
		dm += row.DataMove
		st += row.Storage
		gp += row.GPU
	}
	n := float64(len(r.Rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1f%% %9.1f%%\n", "mean", 100*dm/n, 100*st/n, 100*gp/n)
	}
	return b.String()
}

// Fig3bRow is one bar pair of Figure 3b: how much DMA data movement
// degrades the GPU memory subsystem, plus DMA's share of memory-system
// energy.
type Fig3bRow struct {
	Workload       string
	DMAFraction    float64 // execution-time degradation caused by DMA
	DRAMFraction   float64 // remaining (DRAM-access) share
	EnergyFraction float64 // DMA share of memory-system energy
}

// Fig3bResult is Figure 3b.
type Fig3bResult struct{ Rows []Fig3bRow }

// Fig3b measures DMA's execution-time degradation by running the Origin
// platform twice — once with its standard PCIe staging link and once with
// an instant one — the counterfactual the paper's 31% refers to. Unlike
// Figure 3a this uses the main evaluation's capacity-starved Origin, whose
// working sets spill continuously.
func Fig3b(o Options) (*Fig3bResult, error) {
	// Per workload: one standard-PCIe cell (shared with any other figure
	// that runs Origin/planar) and its core.InstantHost counterfactual.
	var cells []batch.Cell
	for _, w := range o.workloads() {
		real := o.cell(config.Origin, config.Planar, w)
		instant := real
		instant.Variant = core.InstantHost
		cells = append(cells, real, instant)
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	res := &Fig3bResult{}
	for i, w := range o.workloads() {
		repReal, repFree := reps[2*i], reps[2*i+1]

		var dmaF float64
		if repReal.Elapsed > 0 {
			dmaF = 1 - float64(repFree.Elapsed)/float64(repReal.Elapsed)
		}
		if dmaF < 0 {
			dmaF = 0
		}
		dmaE := repReal.EnergyPJ["dma"]
		totE := repReal.TotalEnergyPJ()
		var ef float64
		if totE > 0 {
			ef = dmaE / totE
		}
		res.Rows = append(res.Rows, Fig3bRow{
			Workload:       w,
			DMAFraction:    dmaF,
			DRAMFraction:   1 - dmaF,
			EnergyFraction: ef,
		})
	}
	return res, nil
}

// Render prints the rows.
func (r *Fig3bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3b — GPU memory subsystem: DMA degradation vs DRAM accesses\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %12s\n", "workload", "dma", "dram", "dma-energy")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1f%% %11.1f%%\n",
			row.Workload, 100*row.DMAFraction, 100*row.DRAMFraction, 100*row.EnergyFraction)
	}
	return b.String()
}
