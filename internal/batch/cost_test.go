package batch

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// TestEstimateCostVariantCells: a variant cell is a DES cell like any
// other, so the dry run prices it as one.
func TestEstimateCostVariantCells(t *testing.T) {
	cfg := config.Default(config.Origin, config.Planar)
	cells := []Cell{
		{Config: cfg, Workload: "lud"},
		{Config: cfg, Workload: "lud", Variant: core.SSDHost},
		{Config: cfg, Workload: "lud", Variant: core.Phased(4)},
	}
	ce := EstimateCost(cells)
	if ce.Cells != 3 || ce.DESCells != 3 || ce.AnalyticalCells != 0 {
		t.Fatalf("split = %+v, want 3 DES cells", ce)
	}
	if want := 3 * DESCellCost; ce.Estimated != want {
		t.Fatalf("Estimated = %v, want %v", ce.Estimated, want)
	}
}

// TestEstimateCostPureSweep pins the ordinary path: the split prices both
// tiers.
func TestEstimateCostPureSweep(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	cells := []Cell{
		{Config: cfg, Workload: "lud"},
		{Config: cfg, Workload: "sssp"},
		{Config: cfg, Workload: "lud", Exec: config.ExecAnalytical},
	}
	ce := EstimateCost(cells)
	if want := 2*DESCellCost + 1*AnalyticalCellCost; ce.Estimated != want {
		t.Fatalf("Estimated = %v, want %v", ce.Estimated, want)
	}
	if ce.Estimated < 2*DESCellCost || ce.Estimated > 2*DESCellCost+time.Millisecond {
		t.Fatalf("estimate %v not dominated by the DES cells", ce.Estimated)
	}
}
