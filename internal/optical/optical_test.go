package optical

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// --- WOM coding -----------------------------------------------------------

func TestWOMFirstGeneration(t *testing.T) {
	var w WOM
	for d := uint8(0); d < 4; d++ {
		code := w.EncodeFirst(d)
		if popcount3(code) > 1 {
			t.Errorf("first-gen code %03b for %02b has weight > 1", code, d)
		}
		got, gen := w.Decode(code)
		if got != d || gen != 1 {
			t.Errorf("Decode(EncodeFirst(%02b)) = (%02b, gen %d)", d, got, gen)
		}
	}
}

func TestWOMSecondGenerationAllPairs(t *testing.T) {
	// For every (first datum, second datum) pair: the second write never
	// clears a set bit, and decodes to the second datum.
	var w WOM
	for d1 := uint8(0); d1 < 4; d1++ {
		for d2 := uint8(0); d2 < 4; d2++ {
			c1 := w.EncodeFirst(d1)
			c2 := w.EncodeSecond(d2, c1)
			if c2&c1 != c1 {
				t.Errorf("second write %02b over %02b cleared bits: %03b -> %03b", d2, d1, c1, c2)
			}
			got, _ := w.Decode(c2)
			if got != d2 {
				t.Errorf("Decode(second %02b over first %02b) = %02b", d2, d1, got)
			}
		}
	}
}

func TestWOMSameValueLeavesLight(t *testing.T) {
	var w WOM
	for d := uint8(0); d < 4; d++ {
		c1 := w.EncodeFirst(d)
		if c2 := w.EncodeSecond(d, c1); c2 != c1 {
			t.Errorf("rewriting same value %02b changed light %03b -> %03b", d, c1, c2)
		}
	}
}

func TestWOMDecodeTotal(t *testing.T) {
	// All 8 code states decode without panicking.
	var w WOM
	for code := uint8(0); code < 8; code++ {
		d, gen := w.Decode(code)
		if d > 3 || (gen != 1 && gen != 2) {
			t.Errorf("Decode(%03b) = (%d, %d)", code, d, gen)
		}
	}
}

func TestWOMOverheadConstant(t *testing.T) {
	if Overhead != 1.5 {
		t.Fatalf("WOM overhead = %v, want 1.5 (3 light bits per 2 data bits)", Overhead)
	}
}

func TestWOMProperty(t *testing.T) {
	var w WOM
	f := func(d1, d2 uint8) bool {
		c1 := w.EncodeFirst(d1 & 3)
		c2 := w.EncodeSecond(d2&3, c1)
		if c2&c1 != c1 {
			return false
		}
		got, _ := w.Decode(c2)
		return got == d2&3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mcs is Table I's memory controller count, one virtual channel each.
var mcs = config.DefaultGPU().MemCtrls

// --- Power / BER ----------------------------------------------------------

func TestDefaultBERNearPaper(t *testing.T) {
	pm := NewPowerModel(config.DefaultOptical(), mcs)
	ber := pm.BER(PathReadWrite)
	// Paper: 7.2e-16 with default laser power. We require the same order of
	// magnitude and meeting the 1e-15 requirement.
	if ber > 1e-15 || ber < 1e-17 {
		t.Fatalf("default rd/wr BER = %.2e, want ~7e-16", ber)
	}
	if !pm.MeetsReliability(PathReadWrite) {
		t.Fatal("default path must meet the 1e-15 requirement")
	}
}

func TestBoostedPathsMeetReliability(t *testing.T) {
	// Section VI-B: Auto-rw/Ohm-WOM boost laser 2x, Ohm-BW 4x, and then all
	// measured paths stay under 1e-15.
	cases := []struct {
		boost float64
		path  PathKind
	}{
		{2, PathAutoRW},
		{2, PathSwapWOM},
		{4, PathSwapBW},
		{4, PathAutoRW},
	}
	for _, c := range cases {
		cfg := config.DefaultOptical()
		cfg.LaserBoost = c.boost
		pm := NewPowerModel(cfg, mcs)
		if !pm.MeetsReliability(c.path) {
			t.Errorf("%s with %gx laser: BER %.2e exceeds 1e-15", c.path, c.boost, pm.BER(c.path))
		}
	}
}

func TestUnboostedDualRoutesFail(t *testing.T) {
	// Without the laser boost, the half-coupled paths must NOT meet the
	// requirement — that is exactly why the paper raises the laser power.
	pm := NewPowerModel(config.DefaultOptical(), mcs)
	if pm.MeetsReliability(PathSwapBW) {
		t.Fatalf("swap-bw at 1x laser should fail reliability, got BER %.2e", pm.BER(PathSwapBW))
	}
}

func TestBERMonotoneInLoss(t *testing.T) {
	pm := NewPowerModel(config.DefaultOptical(), mcs)
	plain := pm.BER(PathReadWrite)
	auto := pm.BER(PathAutoRW)
	bw := pm.BER(PathSwapBW)
	if !(plain < auto && auto < bw) {
		t.Fatalf("BER must grow with half-couplings: %.2e %.2e %.2e", plain, auto, bw)
	}
}

func TestReceivedPowerAccountsLosses(t *testing.T) {
	cfg := config.DefaultOptical()
	pm := NewPowerModel(cfg, mcs)
	got := pm.ReceivedPowerDBm(PathReadWrite)
	laser := 10 * math.Log10(cfg.LaserPowerMW)
	loss := cfg.ModulatorLossDB + cfg.FilterDropDB + cfg.WaveguideLossDBcm*cfg.WaveguideCM +
		cfg.SplitterLossDB + cfg.DetectorLossDB
	if math.Abs(got-(laser-loss)) > 1e-9 {
		t.Fatalf("received power %v, want %v", got, laser-loss)
	}
}

func TestTuningEnergy(t *testing.T) {
	pm := NewPowerModel(config.DefaultOptical(), mcs)
	// 128 bytes = 1024 bits at 200 fJ/bit = 204.8 pJ.
	if got := pm.TuningEnergyPJ(128); math.Abs(got-204.8) > 1e-9 {
		t.Fatalf("tuning energy = %v pJ, want 204.8", got)
	}
}

func TestLaserPowerScaling(t *testing.T) {
	cfg := config.DefaultOptical()
	base := NewPowerModel(cfg, mcs).LaserPowerMW()
	cfg.LaserBoost = 4
	if got := NewPowerModel(cfg, mcs).LaserPowerMW(); math.Abs(got-4*base) > 1e-9 {
		t.Fatalf("4x boost laser power = %v, want %v", got, 4*base)
	}
	// One laser source per virtual channel.
	if got := NewPowerModel(cfg, 2*mcs).LaserPowerMW(); math.Abs(got-8*base) > 1e-9 {
		t.Fatalf("4x boost over %d VCs = %v, want %v", 2*mcs, got, 8*base)
	}
}

func TestPathKindStrings(t *testing.T) {
	for _, p := range []PathKind{PathReadWrite, PathAutoRW, PathSwapWOM, PathSwapBW, PathKind(9)} {
		if p.String() == "" {
			t.Fatal("empty path name")
		}
	}
}

// --- Channel --------------------------------------------------------------

func chn(col *stats.Collector) *Channel {
	return NewChannel(config.DefaultOptical(), mcs, col)
}

func TestChannelSerialization(t *testing.T) {
	c := chn(nil)
	cfg := config.DefaultOptical()
	// One VC carries 16 bits = 2 bytes per 33ps word. 128 bytes = 64 words.
	_, end := c.Transfer(0, 0, Forward, 0, 128, stats.RegularRequest)
	minDur := sim.Time(64)*sim.FreqToPeriod(cfg.FreqHz) + cfg.SerDesLatency
	if end < minDur {
		t.Fatalf("transfer end %s earlier than serialization floor %s", end, minDur)
	}
}

func TestChannelVCsIndependent(t *testing.T) {
	c := chn(nil)
	_, e0 := c.Transfer(0, 0, Forward, 0, 1024, stats.RegularRequest)
	s1, _ := c.Transfer(1, 0, Forward, 0, 1024, stats.RegularRequest)
	if s1 >= e0 {
		t.Fatal("virtual channels must not serialize against each other")
	}
}

func TestChannelFCFSWithinVC(t *testing.T) {
	c := chn(nil)
	_, e0 := c.Transfer(0, 0, Forward, 0, 1024, stats.RegularRequest)
	s1, _ := c.Transfer(0, 0, Forward, 0, 1024, stats.RegularRequest)
	if s1 < e0 {
		t.Fatalf("same-VC transfers overlapped: second starts %s before %s", s1, e0)
	}
}

func TestDemuxSwitchCost(t *testing.T) {
	c := chn(nil)
	cfg := config.DefaultOptical()
	_, e0 := c.Transfer(0, 0, Forward, 0, 128, stats.RegularRequest) // device 0: one switch (cold)
	_, e1 := c.Transfer(0, 0, Forward, e0, 128, stats.RegularRequest)
	d1 := e1 - e0
	_, e2 := c.Transfer(0, 1, Forward, e1, 128, stats.RegularRequest) // device change
	d2 := e2 - e1
	if d2 != d1+cfg.DemuxSwitch {
		t.Fatalf("device switch cost %s, want %s extra", d2-d1, cfg.DemuxSwitch)
	}
	if c.DemuxSwitches != 2 { // cold grant + one change
		t.Fatalf("demux switches = %d, want 2", c.DemuxSwitches)
	}
}

func TestMemRouteParallelToDataRoute(t *testing.T) {
	c := chn(nil)
	_, dataEnd := c.Transfer(0, 0, Forward, 0, 4096, stats.RegularRequest)
	s, memEnd := c.TransferMemRoute(0, 0, 4096)
	if s != 0 {
		t.Fatalf("memory route should start immediately, started at %s", s)
	}
	if memEnd >= dataEnd+c.DataFreeAt(0, Forward) && s != 0 {
		t.Fatal("memory route serialized behind data route")
	}
	if c.DataBusy() == 0 || c.MemRouteBusy() == 0 {
		t.Fatal("route busy accounting missing")
	}
}

func TestMemRouteDoesNotChargeDataRoute(t *testing.T) {
	col := stats.NewCollector()
	c := chn(col)
	c.TransferMemRoute(0, 0, 1024)
	if col.ChannelBusy[stats.DataCopy] != 0 {
		t.Fatal("dual-route migration must not occupy the data route")
	}
	if col.ChannelBytes[stats.DataCopy] != 1024 {
		t.Fatalf("migration bytes = %d, want 1024", col.ChannelBytes[stats.DataCopy])
	}
	if col.DualRouteBytes != 1024 {
		t.Fatal("dual-route bytes not accounted")
	}
}

func TestWOMSharingSlowsRequests(t *testing.T) {
	c := chn(nil)
	// Baseline request duration.
	_, e0 := c.Transfer(0, 0, Forward, 0, 1024, stats.RegularRequest)
	base := e0 - c.cfg.DemuxSwitch

	// Activate WOM sharing long enough to cover a second transfer.
	c2 := chn(nil)
	c2.TransferWOMShared(0, 0, 1<<20)
	_, e1 := c2.Transfer(0, 0, Forward, 0, 1024, stats.RegularRequest)
	shared := e1 - c2.cfg.DemuxSwitch
	ratio := float64(shared-c2.cfg.SerDesLatency) / float64(base-c.cfg.SerDesLatency)
	if math.Abs(ratio-Overhead) > 0.05 {
		t.Fatalf("WOM-shared request slowdown = %.3f, want %.2f", ratio, Overhead)
	}
}

func TestChannelAccounting(t *testing.T) {
	col := stats.NewCollector()
	c := chn(col)
	c.Transfer(0, 0, Forward, 0, 100, stats.RegularRequest)
	c.Transfer(1, 0, Forward, 0, 50, stats.DataCopy)
	if col.ChannelBytes[stats.RegularRequest] != 100 || col.ChannelBytes[stats.DataCopy] != 50 {
		t.Fatalf("byte accounting: %v", col.ChannelBytes)
	}
	col.Flush()
	if col.EnergyPJ["opti-network"] <= 0 {
		t.Fatal("optical energy not accounted")
	}
	if c.Transfers != 2 {
		t.Fatalf("transfers = %d", c.Transfers)
	}
}

func TestWaveguidesScaleBandwidth(t *testing.T) {
	cfg := config.DefaultOptical()
	one := NewChannel(cfg, mcs, nil)
	cfg.Waveguides = 4
	four := NewChannel(cfg, mcs, nil)
	_, e1 := one.Transfer(0, 0, Forward, 0, 4096, stats.RegularRequest)
	_, e4 := four.Transfer(0, 0, Forward, 0, 4096, stats.RegularRequest)
	// Serialization shrinks ~4x (fixed overheads aside).
	if float64(e4) > float64(e1)*0.5 {
		t.Fatalf("4 waveguides not faster: %s vs %s", e4, e1)
	}
}

func TestMinimumOneWord(t *testing.T) {
	c := chn(nil)
	// Even a 1-byte transfer occupies at least one word slot.
	_, end := c.Transfer(0, 0, Forward, 0, 1, stats.RegularRequest)
	if end < sim.FreqToPeriod(c.cfg.FreqHz) {
		t.Fatalf("sub-word transfer took %s", end)
	}
}

// Property: transfers on one VC never overlap regardless of arrival order.
func TestChannelNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := chn(nil)
		var lastEnd sim.Time
		at := sim.Time(0)
		for _, sz := range sizes {
			s, e := c.Transfer(0, 0, Forward, at, int(sz%2048)+1, stats.RegularRequest)
			if s < lastEnd || e <= s {
				return false
			}
			lastEnd = e
			at += 100
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
