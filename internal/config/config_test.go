package config

import (
	"math"
	"strings"
	"testing"
)

func TestPlatformString(t *testing.T) {
	want := map[Platform]string{
		Origin: "Origin", Hetero: "Hetero", OhmBase: "Ohm-base",
		AutoRW: "Auto-rw", OhmWOM: "Ohm-WOM", OhmBW: "Ohm-BW", Oracle: "Oracle",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if got := Platform(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown platform string = %q", got)
	}
}

func TestAllPlatformsOrder(t *testing.T) {
	ps := AllPlatforms()
	if len(ps) != 7 {
		t.Fatalf("AllPlatforms returned %d platforms, want 7", len(ps))
	}
	if ps[0] != Origin || ps[6] != Oracle {
		t.Fatalf("platform order wrong: %v", ps)
	}
}

func TestPlatformPredicates(t *testing.T) {
	if Origin.Optical() || Hetero.Optical() {
		t.Error("electrical platforms misreported as optical")
	}
	for _, p := range OpticalPlatforms() {
		if !p.Optical() {
			t.Errorf("%s should be optical", p)
		}
	}
	if Origin.Heterogeneous() || Oracle.Heterogeneous() {
		t.Error("DRAM-only platforms misreported as heterogeneous")
	}
	for _, p := range []Platform{Hetero, OhmBase, AutoRW, OhmWOM, OhmBW} {
		if !p.Heterogeneous() {
			t.Errorf("%s should be heterogeneous", p)
		}
	}
}

func TestMemModeString(t *testing.T) {
	if Planar.String() != "planar" || TwoLevel.String() != "two-level" {
		t.Error("mode strings wrong")
	}
	if len(AllModes()) != 2 {
		t.Error("AllModes should return both modes")
	}
}

func TestDefaultTable1Values(t *testing.T) {
	g := DefaultGPU()
	if g.SMs != 16 {
		t.Errorf("SMs = %d, want 16 (Table I)", g.SMs)
	}
	if g.CoreFreqHz != 1.2e9 {
		t.Errorf("core freq = %v, want 1.2GHz", g.CoreFreqHz)
	}
	if g.L1SizeBytes != 48<<10/CacheScale || g.L1Ways != 6 {
		t.Error("L1 must be 48KB 6-way scaled by CacheScale (Table I)")
	}
	if g.L2SizeBytes != 6<<20/CacheScale || g.L2Ways != 8 {
		t.Error("L2 must be 6MB 8-way scaled by CacheScale (Table I)")
	}

	d := DefaultDRAM()
	if d.TRCD != 25_000 || d.TRP != 10_000 || d.TCL != 11_000 || d.TRRD != 5_000 {
		t.Errorf("DRAM timings %v/%v/%v/%v do not match Table I", d.TRCD, d.TRP, d.TCL, d.TRRD)
	}

	x := DefaultXPoint()
	if x.ReadLatency != 190_000 {
		t.Errorf("PRAM read = %v, want 190ns (Table I)", x.ReadLatency)
	}
	if x.WriteLatency != 763_000 {
		t.Errorf("PRAM write = %v, want 763ns (Table I)", x.WriteLatency)
	}

	o := DefaultOptical()
	if o.ChannelBits != 96 || o.FreqHz != 30e9 || o.VirtualChannels != 6 {
		t.Error("optical channel must be 96-bit / 30GHz / 6 VCs (Table I)")
	}
	if o.LaserPowerMW != 0.73 {
		t.Errorf("laser power = %v mW, want 0.73 (Section VI)", o.LaserPowerMW)
	}
	if o.MRRTuningFJPerBit != 200 || o.FilterDropDB != 1.5 || o.WaveguideLossDBcm != 0.3 ||
		o.SplitterLossDB != 0.2 || o.DetectorLossDB != 0.1 {
		t.Error("optical power model constants do not match Table I")
	}

	e := DefaultElectrical()
	if e.Channels != 6 || e.LaneBits != 32 || e.FreqHz != 15e9 {
		t.Error("electrical channels must be 6 x 32-bit x 15GHz (Table I)")
	}
}

func TestCapacityRatios(t *testing.T) {
	p := DefaultMemory(Planar)
	if p.XPointBytes != p.DRAMBytes*8 {
		t.Errorf("planar ratio = %d:%d, want 1:8", p.DRAMBytes, p.XPointBytes)
	}
	tl := DefaultMemory(TwoLevel)
	if tl.XPointBytes != tl.DRAMBytes*64 {
		t.Errorf("two-level ratio = %d:%d, want 1:64", tl.DRAMBytes, tl.XPointBytes)
	}
}

func TestDefaultPlatformAdjustments(t *testing.T) {
	if c := Default(Origin, Planar); c.Memory.XPointBytes != 0 {
		t.Error("Origin must have no XPoint")
	}
	or := Default(Oracle, Planar)
	base := Default(OhmBase, Planar)
	if or.Memory.DRAMBytes != base.Memory.DRAMBytes+base.Memory.XPointBytes {
		t.Error("Oracle DRAM must equal full heterogeneous capacity")
	}
	if or.Memory.XPointBytes != 0 {
		t.Error("Oracle must have no XPoint")
	}
	if Default(AutoRW, Planar).Optical.LaserBoost != 2 {
		t.Error("Auto-rw laser boost must be 2x (Section VI)")
	}
	if Default(OhmWOM, Planar).Optical.LaserBoost != 2 {
		t.Error("Ohm-WOM laser boost must be 2x")
	}
	if Default(OhmBW, Planar).Optical.LaserBoost != 4 {
		t.Error("Ohm-BW laser boost must be 4x")
	}
	if Default(OhmBase, Planar).Optical.LaserBoost != 1 {
		t.Error("Ohm-base laser boost must be 1x")
	}
}

func TestValidateDefaults(t *testing.T) {
	for _, p := range AllPlatforms() {
		for _, m := range AllModes() {
			c := Default(p, m)
			if err := c.Validate(); err != nil {
				t.Errorf("Default(%s,%s) invalid: %v", p, m, err)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.GPU.SMs = 0 }},
		{"non-pow2 line", func(c *Config) { c.GPU.LineBytes = 96 }},
		{"zero MCs", func(c *Config) { c.GPU.MemCtrls = 0 }},
		{"VC/MC mismatch", func(c *Config) { c.Optical.VirtualChannels = 3 }},
		{"zero waveguides", func(c *Config) { c.Optical.Waveguides = 0 }},
		{"zero DRAM", func(c *Config) { c.Memory.DRAMBytes = 0 }},
		{"hetero without xpoint", func(c *Config) { c.Memory.XPointBytes = 0 }},
		{"bad page size", func(c *Config) { c.Memory.PageBytes = 100 }},
		{"zero xpoint read", func(c *Config) { c.XPoint.ReadLatency = 0 }},
		{"zero banks", func(c *Config) { c.DRAM.Banks = 0 }},
		{"zero instructions", func(c *Config) { c.MaxInstructions = 0 }},
		{"zero core clock", func(c *Config) { c.GPU.CoreFreqHz = 0 }},
		{"NaN optical clock", func(c *Config) { c.Optical.FreqHz = math.NaN() }},
		{"negative electrical clock", func(c *Config) { c.Electrical.FreqHz = -15e9 }},
		{"zero hot threshold", func(c *Config) { c.Memory.HotThreshold = 0 }},
		{"negative hot threshold", func(c *Config) { c.Memory.HotThreshold = -4 }},
	}
	for _, m := range mutations {
		c := Default(OhmBW, Planar)
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted config with %s", m.name)
		}
	}

	// Overrides that panicked a cell or made its channel free fail with an
	// error naming their path, on the platforms that build the component,
	// and bind nowhere else. memory.dram_bytes below one byte per
	// controller panicked Origin's cells.
	named := []struct {
		p      Platform
		m      MemMode
		path   string
		v      int
		reject bool
	}{
		{Origin, Planar, "dram.row_bytes", 0, true},
		{Origin, TwoLevel, "memory.dram_bytes", 5, true},
		{OhmBW, TwoLevel, "dram.row_bytes", 0, true},
		{Origin, Planar, "electrical.channels", 3, true},
		{Hetero, Planar, "electrical.channels", 3, true},
		{Hetero, TwoLevel, "electrical.channels", 0, true},
		{Hetero, Planar, "electrical.channels", -1, true},
		{OhmBW, Planar, "electrical.channels", 3, false},
		{Hetero, Planar, "electrical.lane_bits", 0, true},
		{OhmBW, Planar, "electrical.lane_bits", 0, false},
		{Hetero, Planar, "electrical.pj_per_bit", -1, true},
		{OhmBW, Planar, "electrical.pj_per_bit", -1, false},
		{Hetero, TwoLevel, "xpoint.read_buf_ent", 0, true},
		{OhmBW, Planar, "xpoint.read_buf_ent", -1, true},
		{OhmBW, Planar, "xpoint.write_buf_ent", 0, true},
		{Hetero, Planar, "xpoint.write_buf_ent", -1, true},
		{Oracle, Planar, "xpoint.read_buf_ent", 0, false},
		{OhmBW, Planar, "optical.channel_bits", 0, true},
		{OhmBW, TwoLevel, "optical.channel_bits", -8, true},
		{Hetero, Planar, "optical.channel_bits", 0, false},
	}
	for _, n := range named {
		c := Default(n.p, n.m)
		if err := c.Set(n.path, n.v); err != nil {
			t.Fatal(err)
		}
		err := c.Validate()
		if n.reject && (err == nil || !strings.Contains(err.Error(), n.path)) {
			t.Errorf("%s/%s %s=%d: Validate = %v, want an error naming the path", n.p, n.m, n.path, n.v, err)
		}
		if !n.reject && err != nil {
			t.Errorf("%s/%s %s=%d: Validate = %v, want nil where the component is not built", n.p, n.m, n.path, n.v, err)
		}
	}
}

// TestValidateNamesHotThreshold: a threshold below 1 is rejected with an
// error naming its spec path, on every platform, not only the planar
// migrating ones that read it.
func TestValidateNamesHotThreshold(t *testing.T) {
	for _, p := range AllPlatforms() {
		c := Default(p, TwoLevel)
		c.Memory.HotThreshold = 0
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "memory.hot_threshold") {
			t.Errorf("%s: Validate with hot threshold 0 = %v, want an error naming memory.hot_threshold", p, err)
		}
	}
}

func TestBandwidthEquivalence(t *testing.T) {
	// Section VI: the default single optical channel provides the same
	// bandwidth as the six 32-bit electrical channels.
	c := Default(OhmBase, Planar)
	opt := c.OpticalChannelBandwidth()
	ele := c.ElectricalChannelBandwidth()
	ratio := opt / ele
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("optical (%.3g B/s) and electrical (%.3g B/s) default bandwidths must match; ratio %.3f",
			opt, ele, ratio)
	}
	c.Optical.Waveguides = 4
	if got := c.OpticalChannelBandwidth(); got != 4*opt {
		t.Errorf("waveguide scaling: got %.3g, want %.3g", got, 4*opt)
	}
}

func TestWorkloadsTable2(t *testing.T) {
	ws := Workloads()
	if len(ws) != 10 {
		t.Fatalf("Table II has 10 workloads, got %d", len(ws))
	}
	want := map[string]struct {
		apki int
		rr   float64
	}{
		"backp": {30, 0.53}, "lud": {20, 0.52}, "GRAMS": {266, 0.70},
		"FDTD": {86, 0.70}, "betw": {193, 0.99}, "bfsdata": {84, 0.95},
		"bfstopo": {25, 0.97}, "gctopo": {93, 0.99}, "pagerank": {599, 0.99},
		"sssp": {103, 0.98},
	}
	for _, w := range ws {
		exp, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected workload %q", w.Name)
			continue
		}
		if w.APKI != exp.apki || w.ReadRatio != exp.rr {
			t.Errorf("%s: APKI=%d rr=%v, want APKI=%d rr=%v", w.Name, w.APKI, w.ReadRatio, exp.apki, exp.rr)
		}
		if w.FootprintScale <= 1 {
			t.Errorf("%s: footprint scale %v must exceed DRAM capacity to exercise migration", w.Name, w.FootprintScale)
		}
		if w.HotSkew <= 0 {
			t.Errorf("%s: hot skew must be positive", w.Name)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, ok := WorkloadByName("pagerank")
	if !ok || w.APKI != 599 {
		t.Fatalf("WorkloadByName(pagerank) = %+v, %v", w, ok)
	}
	if _, ok := WorkloadByName("nope"); ok {
		t.Fatal("WorkloadByName accepted unknown name")
	}
	names := WorkloadNames()
	if len(names) != 10 || names[0] != "backp" || names[9] != "sssp" {
		t.Fatalf("WorkloadNames order wrong: %v", names)
	}
}
