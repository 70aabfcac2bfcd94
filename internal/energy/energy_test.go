package energy

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestFinalizeComponents(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	col := stats.NewCollector()
	m := Default()
	m.Finalize(col, &cfg, Counters{
		Elapsed:      sim.Millisecond,
		DRAMReads:    100,
		DRAMWrites:   50,
		XPointReads:  30,
		XPointWrites: 10,
	})
	col.Flush()
	for _, k := range []string{"dram-static", "dram-dynamic", "xpoint", "opti-network"} {
		if col.EnergyPJ[k] <= 0 {
			t.Errorf("component %q missing or non-positive: %v", k, col.EnergyPJ[k])
		}
	}
	wantDyn := 150 * m.DRAMDynamicPJPerAccess
	if math.Abs(col.EnergyPJ["dram-dynamic"]-wantDyn) > 1e-6 {
		t.Errorf("dram-dynamic = %v, want %v", col.EnergyPJ["dram-dynamic"], wantDyn)
	}
	wantXP := 30*m.XPointReadPJ + 10*m.XPointWritePJ
	if math.Abs(col.EnergyPJ["xpoint"]-wantXP) > 1e-6 {
		t.Errorf("xpoint = %v, want %v", col.EnergyPJ["xpoint"], wantXP)
	}
}

func TestStaticScalesWithTime(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	m := Default()
	c1, c2 := stats.NewCollector(), stats.NewCollector()
	m.Finalize(c1, &cfg, Counters{Elapsed: sim.Millisecond})
	c1.Flush()
	m.Finalize(c2, &cfg, Counters{Elapsed: 2 * sim.Millisecond})
	c2.Flush()
	if math.Abs(c2.EnergyPJ["dram-static"]-2*c1.EnergyPJ["dram-static"]) > 1e-3 {
		t.Fatal("static energy must scale linearly with elapsed time")
	}
}

func TestElectricalPlatformHasNoLaser(t *testing.T) {
	cfg := config.Default(config.Hetero, config.Planar)
	col := stats.NewCollector()
	Default().Finalize(col, &cfg, Counters{Elapsed: sim.Millisecond, XPointReads: 1})
	col.Flush()
	if col.EnergyPJ["opti-network"] != 0 {
		t.Fatal("electrical platform must not pay laser power")
	}
	if col.EnergyPJ["xpoint"] <= 0 {
		t.Fatal("hetero platform must account XPoint energy")
	}
}

func TestDRAMOnlyPlatformHasNoXPoint(t *testing.T) {
	cfg := config.Default(config.Oracle, config.Planar)
	col := stats.NewCollector()
	Default().Finalize(col, &cfg, Counters{Elapsed: sim.Millisecond, XPointReads: 99})
	col.Flush()
	if col.EnergyPJ["xpoint"] != 0 {
		t.Fatal("Oracle must not account XPoint energy")
	}
}

func TestLaserBoostRaisesOpticalEnergy(t *testing.T) {
	base := config.Default(config.OhmBase, config.Planar)
	bw := config.Default(config.OhmBW, config.Planar)
	c1, c2 := stats.NewCollector(), stats.NewCollector()
	Default().Finalize(c1, &base, Counters{Elapsed: sim.Millisecond})
	c1.Flush()
	Default().Finalize(c2, &bw, Counters{Elapsed: sim.Millisecond})
	c2.Flush()
	if c2.EnergyPJ["opti-network"] <= c1.EnergyPJ["opti-network"] {
		t.Fatal("4x laser boost must raise optical energy")
	}
	ratio := c2.EnergyPJ["opti-network"] / c1.EnergyPJ["opti-network"]
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("laser energy ratio = %v, want 4", ratio)
	}
}

func TestOracleStaticDominatesWithHugeDRAM(t *testing.T) {
	// Oracle carries 9x the DRAM in planar mode: its static energy must be
	// 9x Ohm-base's for equal elapsed time.
	base := config.Default(config.OhmBase, config.Planar)
	oracle := config.Default(config.Oracle, config.Planar)
	c1, c2 := stats.NewCollector(), stats.NewCollector()
	Default().Finalize(c1, &base, Counters{Elapsed: sim.Millisecond})
	c1.Flush()
	Default().Finalize(c2, &oracle, Counters{Elapsed: sim.Millisecond})
	c2.Flush()
	ratio := c2.EnergyPJ["dram-static"] / c1.EnergyPJ["dram-static"]
	if math.Abs(ratio-9) > 0.01 {
		t.Fatalf("Oracle static DRAM ratio = %v, want 9 (1+8 capacity)", ratio)
	}
}

func TestBreakdownFractions(t *testing.T) {
	r := stats.Report{EnergyPJ: map[string]float64{"a": 30, "b": 70}}
	f := BreakdownFractions(r)
	if math.Abs(f["a"]-0.3) > 1e-9 || math.Abs(f["b"]-0.7) > 1e-9 {
		t.Fatalf("fractions = %v", f)
	}
	empty := BreakdownFractions(stats.Report{EnergyPJ: map[string]float64{}})
	if len(empty) != 0 {
		t.Fatal("empty report must yield empty fractions")
	}
}
