package elec

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mcs is Table I's memory controller count, one electrical channel each.
var mcs = config.DefaultGPU().MemCtrls

func TestTransferDuration(t *testing.T) {
	cfg := config.DefaultElectrical()
	c := New(cfg, mcs, nil)
	// 32-bit lane at 15 GHz: 4 bytes per word of 67ps x BandwidthScale;
	// 128 bytes = 32 words.
	_, end := c.Transfer(0, Forward, 0, 128, stats.RegularRequest)
	word := sim.Time(float64(sim.FreqToPeriod(15e9))*cfg.BandwidthScale + 0.5)
	want := 32 * word
	if end < want-sim.Nanosecond || end > want+sim.Nanosecond {
		t.Fatalf("128B transfer took %s, want about %s", end, want)
	}
}

func TestChannelsIndependent(t *testing.T) {
	c := New(config.DefaultElectrical(), mcs, nil)
	_, e0 := c.Transfer(0, Forward, 0, 4096, stats.RegularRequest)
	s1, _ := c.Transfer(1, Forward, 0, 4096, stats.RegularRequest)
	if s1 >= e0 {
		t.Fatal("distinct electrical channels serialized")
	}
	if c.Channels() != 6 {
		t.Fatalf("channels = %d, want 6 (Table I)", c.Channels())
	}
}

func TestSameChannelSerializes(t *testing.T) {
	c := New(config.DefaultElectrical(), mcs, nil)
	_, e0 := c.Transfer(0, Forward, 0, 4096, stats.RegularRequest)
	s1, _ := c.Transfer(0, Forward, 0, 4096, stats.RegularRequest)
	if s1 != e0 {
		t.Fatalf("same-channel transfer started at %s, want %s", s1, e0)
	}
}

func TestAccounting(t *testing.T) {
	col := stats.NewCollector()
	c := New(config.DefaultElectrical(), mcs, col)
	c.Transfer(0, Forward, 0, 100, stats.DataCopy)
	if col.ChannelBytes[stats.DataCopy] != 100 {
		t.Fatal("copy bytes not accounted")
	}
	col.Flush()
	want := 100.0 * 8 * config.DefaultElectrical().PJPerBit
	if got := col.EnergyPJ["elec-channel"]; got != want {
		t.Fatalf("energy = %v pJ, want %v", got, want)
	}
}

func TestMinimumWord(t *testing.T) {
	c := New(config.DefaultElectrical(), mcs, nil)
	_, end := c.Transfer(0, Forward, 0, 1, stats.RegularRequest)
	if end < sim.FreqToPeriod(15e9) {
		t.Fatalf("1-byte transfer took %s", end)
	}
}

func TestNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := New(config.DefaultElectrical(), mcs, nil)
		var lastEnd sim.Time
		for _, sz := range sizes {
			s, e := c.Transfer(0, Forward, 0, int(sz%4096)+1, stats.RegularRequest)
			if s < lastEnd || e <= s {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpticalElectricalBandwidthParity(t *testing.T) {
	// Section VI: the default optical channel matches the aggregate
	// electrical bandwidth. A 4 KiB transfer split evenly across 6
	// electrical channels should take about as long as 6 parallel optical
	// VC transfers of the same total size.
	cfg := config.Default(config.OhmBase, config.Planar)
	ec := New(cfg.Electrical, mcs, nil)
	per := 4096 / 6
	var eEnd sim.Time
	for ch := 0; ch < 6; ch++ {
		_, e := ec.Transfer(ch, Forward, 0, per, stats.RegularRequest)
		if e > eEnd {
			eEnd = e
		}
	}
	// 682B over 4B words of 67ps x BandwidthScale(10) = ~171 words = ~114ns.
	word := sim.Time(float64(sim.FreqToPeriod(15e9))*cfg.Electrical.BandwidthScale + 0.5)
	want := sim.Time(171) * word
	if eEnd < want-10*sim.Nanosecond || eEnd > want+10*sim.Nanosecond {
		t.Fatalf("electrical 4KiB/6ch = %s, want ~%s", eEnd, want)
	}
}
