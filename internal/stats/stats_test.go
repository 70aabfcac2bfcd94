package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLatencyDistBasics(t *testing.T) {
	var d LatencyDist
	if d.Mean() != 0 || d.Percentile(99) != 0 {
		t.Fatal("empty dist must report zeros")
	}
	d.Add(100 * sim.Nanosecond)
	d.Add(200 * sim.Nanosecond)
	d.Add(300 * sim.Nanosecond)
	if d.Count != 3 {
		t.Fatalf("count = %d", d.Count)
	}
	if d.Mean() != 200*sim.Nanosecond {
		t.Fatalf("mean = %s, want 200ns", d.Mean())
	}
	if d.Min != 100*sim.Nanosecond || d.Max != 300*sim.Nanosecond {
		t.Fatalf("min/max = %s/%s", d.Min, d.Max)
	}
}

func TestLatencyDistNegativeClamped(t *testing.T) {
	var d LatencyDist
	d.Add(-5)
	if d.Min != 0 {
		t.Fatal("negative sample must clamp to zero")
	}
}

func TestLatencyDistPercentileMonotone(t *testing.T) {
	var d LatencyDist
	for i := 1; i <= 1000; i++ {
		d.Add(sim.Time(i) * sim.Nanosecond)
	}
	p50 := d.Percentile(50)
	p90 := d.Percentile(90)
	p99 := d.Percentile(99)
	if p50 > p90 || p90 > p99 {
		t.Fatalf("percentiles not monotone: p50=%s p90=%s p99=%s", p50, p90, p99)
	}
	if p99 > d.Max*2 {
		t.Fatalf("p99=%s wildly exceeds max=%s", p99, d.Max)
	}
}

func TestLatencyDistMerge(t *testing.T) {
	var a, b LatencyDist
	a.Add(10 * sim.Nanosecond)
	b.Add(30 * sim.Nanosecond)
	a.Merge(&b)
	if a.Count != 2 || a.Mean() != 20*sim.Nanosecond {
		t.Fatalf("merge: count=%d mean=%s", a.Count, a.Mean())
	}
	if a.Min != 10*sim.Nanosecond || a.Max != 30*sim.Nanosecond {
		t.Fatalf("merge min/max wrong: %s/%s", a.Min, a.Max)
	}
	var empty LatencyDist
	a.Merge(&empty) // must be a no-op
	if a.Count != 2 {
		t.Fatal("merging empty changed count")
	}
}

// Property: mean is always within [min, max] and sum == mean*count +/- rounding.
func TestLatencyDistMeanProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		var d LatencyDist
		for _, s := range samples {
			d.Add(sim.Time(s % 1_000_000))
		}
		if d.Count == 0 {
			return d.Mean() == 0
		}
		m := d.Mean()
		return m >= d.Min && m <= d.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorChannelClasses(t *testing.T) {
	c := NewCollector()
	c.AddChannel(RegularRequest, 1000, 60*sim.Nanosecond)
	c.AddChannel(DataCopy, 500, 40*sim.Nanosecond)
	if got := c.CopyFraction(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("copy fraction = %v, want 0.4", got)
	}
	if c.ChannelBytes[RegularRequest] != 1000 || c.ChannelBytes[DataCopy] != 500 {
		t.Fatal("byte accounting wrong")
	}
}

func TestCollectorCopyFractionEmpty(t *testing.T) {
	if NewCollector().CopyFraction() != 0 {
		t.Fatal("empty collector must report 0 copy fraction")
	}
}

func TestCollectorIPC(t *testing.T) {
	c := NewCollector()
	c.Instructions = 1200
	// 1 us at 1.2 GHz = 1200 cycles => IPC 1.0
	got := c.IPC(sim.Microsecond, 1.2e9)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("IPC = %v, want 1.0", got)
	}
	if c.IPC(0, 1.2e9) != 0 {
		t.Fatal("IPC at zero elapsed must be 0")
	}
}

func TestCollectorEnergy(t *testing.T) {
	c := NewCollector()
	dram, xp := c.InternEnergy("dram-static"), c.InternEnergy("xpoint")
	c.AddEnergyH(dram, 10)
	c.AddEnergyH(dram, 5)
	c.AddEnergyH(xp, 7)
	c.Flush()
	if c.EnergyPJ["dram-static"] != 15 {
		t.Fatal("energy accumulation wrong")
	}
	if got := c.TotalEnergyPJ(); math.Abs(got-22) > 1e-9 {
		t.Fatalf("total energy = %v, want 22", got)
	}
	names := c.EnergyComponents()
	if len(names) != 2 || names[0] != "dram-static" || names[1] != "xpoint" {
		t.Fatalf("components not sorted: %v", names)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := NewCollector()
	c.Instructions = 100
	hx := c.InternEnergy("x")
	c.AddEnergyH(hx, 1)
	c.Extra["k"] = 2
	c.MemLatency.Add(50 * sim.Nanosecond)
	r := c.Snapshot(sim.Microsecond, 1e9)
	// Mutating the collector after snapshot must not affect the report.
	c.AddEnergyH(hx, 100)
	c.Flush()
	c.Extra["k"] = 99
	if r.EnergyPJ["x"] != 1 || r.Extra["k"] != 2 {
		t.Fatal("snapshot shares maps with collector")
	}
	if r.Instructions != 100 || r.MeanLatency != 50*sim.Nanosecond {
		t.Fatalf("snapshot fields wrong: %+v", r)
	}
	if r.TotalEnergyPJ() != 1 {
		t.Fatalf("report energy = %v", r.TotalEnergyPJ())
	}
}

func TestReportString(t *testing.T) {
	r := Report{Elapsed: sim.Microsecond, IPC: 1.5, MeanLatency: 100 * sim.Nanosecond}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
	}
}

func TestClassString(t *testing.T) {
	if RegularRequest.String() != "regular" || DataCopy.String() != "copy" {
		t.Fatal("class strings wrong")
	}
}

func TestHandleCountersAllocFree(t *testing.T) {
	c := NewCollector()
	he := c.InternEnergy("opti-network")
	hx := c.InternExtra("xp-lat-sum")
	allocs := testing.AllocsPerRun(2000, func() {
		c.AddEnergyH(he, 1.5)
		c.AddExtraH(hx, 2.0)
	})
	if allocs != 0 {
		t.Fatalf("handle counters allocate %.1f objects/op, want 0", allocs)
	}
}

func TestHandleCountersFoldIntoMaps(t *testing.T) {
	c := NewCollector()
	he := c.InternEnergy("laser")
	hx := c.InternExtra("waits")
	unused := c.InternExtra("never-touched")
	_ = unused
	c.AddEnergyH(he, 3)
	c.AddEnergyH(he, 4)
	c.AddExtraH(hx, 1)
	// Direct map writes to the same component coexist with handle adds.
	c.EnergyPJ["laser"] += 10

	rep := c.Snapshot(sim.Second, 1e9)
	if got := rep.EnergyPJ["laser"]; got != 17 {
		t.Fatalf("laser energy = %v, want 17", got)
	}
	if got := rep.Extra["waits"]; got != 1 {
		t.Fatalf("waits = %v, want 1", got)
	}
	if _, ok := rep.Extra["never-touched"]; ok {
		t.Fatal("interning alone must not create map keys")
	}
	// Flushing is idempotent: a second snapshot sees the same totals.
	rep2 := c.Snapshot(sim.Second, 1e9)
	if rep2.EnergyPJ["laser"] != 17 || rep2.Extra["waits"] != 1 {
		t.Fatalf("second snapshot changed totals: %v / %v", rep2.EnergyPJ["laser"], rep2.Extra["waits"])
	}
	// Re-interning returns the same handle.
	if c.InternEnergy("laser") != he || c.InternExtra("waits") != hx {
		t.Fatal("re-interning a name must return the original handle")
	}
}
