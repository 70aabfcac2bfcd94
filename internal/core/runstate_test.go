package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
)

// TestPooledRunsByteIdentical is the pooling correctness gate: a shuffled
// grid of cells runs twice, once into a new RunState per cell (what a nil
// state means) and once into a single RunState recycled across the grid,
// and every report — including the Extra map — must be byte-identical
// between the two. The shuffle makes each CI run exercise a different
// platform/mode adjacency (what a cell finds in the slots its platform
// uses, and in those it leaves alone, depends on the cells before it); the
// seed is logged so a failure reproduces. TestPooledSlotAdjacencies pins
// the adjacencies a shuffle only sometimes draws. One cell per run variant covers what default reports cannot
// see: a recycled state after a non-default host link, XPoint wear read
// back after the scrub, and a probe of a component the platform lacks.
func TestPooledRunsByteIdentical(t *testing.T) {
	type cell struct {
		p config.Platform
		m config.MemMode
		w config.Workload
		v Variant
		// knob, when set, turns on what the cell's probe counts.
		knob func(*config.Config)
	}
	table := func(name string) config.Workload {
		w, ok := config.WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return w
	}
	custom := config.Workload{
		Name: "pooled-custom", APKI: 60, ReadRatio: 0.7,
		FootprintScale: 1.5, HotSkew: 0.8,
	}
	var cells []cell
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			cells = append(cells, cell{p: p, m: m, w: table("bfstopo")})
		}
	}
	cells = append(cells,
		cell{p: config.OhmWOM, m: config.Planar, w: table("pagerank")},
		cell{p: config.OhmBW, m: config.TwoLevel, w: table("sssp")},
		cell{p: config.Origin, m: config.Planar, w: table("backp")},
		cell{p: config.Hetero, m: config.TwoLevel, w: table("lud")},
		cell{p: config.OhmBase, m: config.Planar, w: custom},
		cell{p: config.Origin, m: config.Planar, w: table("backp"), v: SSDHost},
		cell{p: config.Origin, m: config.Planar, w: table("bfstopo"), v: InstantHost},
		cell{p: config.OhmBW, m: config.Planar, w: table("backp"), v: WearProbe},
		cell{p: config.OhmBW, m: config.Planar, w: table("lud"), v: MaxWearProbe},
		cell{p: config.OhmBW, m: config.Planar, w: table("sssp"), v: MergesProbe,
			knob: func(c *config.Config) { c.GPU.MSHREntries = 64 }},
		cell{p: config.OhmBW, m: config.Planar, w: table("pagerank"), v: BorrowsProbe,
			knob: func(c *config.Config) { c.Optical.DynamicDivision = true }},
		cell{p: config.Hetero, m: config.Planar, w: table("pagerank"), v: BorrowsProbe},
		cell{p: config.OhmBase, m: config.Planar, w: table("bfstopo"), v: Phased(4)},
	)
	seed := time.Now().UnixNano()
	t.Logf("shuffle seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, c := range cells {
		cfg := fastCfg(c.p, c.m)
		if c.knob != nil {
			c.knob(&cfg)
		}
		label := c.p.String() + "/" + c.m.String() + "/" + c.w.Name + "#" + string(c.v)
		run := func(dst *RunState) []byte {
			rep, _, err := Run(dst, cfg, c.w, c.v)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		fresh, pooled := run(nil), run(st)
		if !bytes.Equal(fresh, pooled) {
			t.Errorf("%s: recycled-state report diverges from new-state report\nnew:      %s\nrecycled: %s",
				label, fresh, pooled)
		}
	}
}

// TestPooledRebuildAllocs pins down what the pool buys: once a RunState
// has built every platform in both modes, rebuilding any of them into it,
// after any other, allocates a small constant instead of the full
// device-array footprint a cold build pays. Every component keeps its slot
// in hmem.Controller, so alternating platforms costs what repeating one
// does.
func TestPooledRebuildAllocs(t *testing.T) {
	var cfgs []config.Config
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			cfgs = append(cfgs, fastCfg(p, m))
		}
	}
	st := new(RunState)
	warm := make([]uint64, len(cfgs))
	for i := range warm {
		warm[i] = math.MaxUint64
	}
	var ms runtime.MemStats
	// Round 0 builds cold. Another goroutine can only add to a count, so
	// each rebuild keeps its smallest warm one.
	for round := 0; round < 4; round++ {
		for i, cfg := range cfgs {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := NewSystemIn(st, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if round > 0 {
				warm[i] = min(warm[i], ms.Mallocs-before)
			}
		}
	}
	// A cold build allocates thousands of objects (wear arrays, cache tag
	// arrays, per-bank resources, stats maps). A warm rebuild allocates 2,
	// the System value and the escaping config copy; 8 leaves slack for
	// toolchain drift without letting a real regression hide.
	for i, n := range warm {
		if n > 8 {
			prev := cfgs[(i+len(cfgs)-1)%len(cfgs)]
			t.Errorf("warm NewSystemIn of %s/%s after %s/%s allocates %d objects, want <= 8",
				cfgs[i].Platform, cfgs[i].Mode, prev.Platform, prev.Mode, n)
		}
	}
}

// TestPooledHostLinkRecycling pins an adjacency the shuffled grid above
// only sometimes draws: a default Origin cell built into a state whose
// previous cell staged over the SSD or the zero-cost link must stage over
// PCIe again, exactly as a new state does.
func TestPooledHostLinkRecycling(t *testing.T) {
	w, _ := config.WorkloadByName("backp")
	cfg := fastCfg(config.Origin, config.Planar)
	report := func(st *RunState, v Variant) []byte {
		t.Helper()
		rep, _, err := Run(st, cfg, w, v)
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := report(nil, DefaultRun)
	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, v := range []Variant{SSDHost, InstantHost} {
		report(st, v)
		if got := report(st, DefaultRun); !bytes.Equal(got, fresh) {
			t.Errorf("default Origin cell after a %q cell diverges from a new state\nnew:      %s\nrecycled: %s", v, fresh, got)
		}
	}
}

// TestPooledSlotAdjacencies runs, into one state and in a fixed order, the
// adjacencies that depend on each component leaving every slot the current
// cell does not use as the previous cell left it. Each cell must be
// byte-identical to the same cell built into a new state:
//   - a probe of a component the platform lacks, after a cell that used it
//     (borrows on Hetero after a dynamic-division Ohm-BW cell, wear on
//     Oracle after an Ohm-BW cell), reads 0 rather than the stale count;
//   - a two-level cell between two planar ones;
//   - the controller count going 6 -> 3 -> 6, so the last cell reuses
//     banks that the middle one left alone;
//   - each leaf count shrinking and growing back the same way, so the last
//     cell reuses slots, occupancy tables included, that the middle one
//     left alone: DRAM banks, XPoint partitions, SMs, the detailed NoC's
//     ports and Hetero's electrical channels.
func TestPooledSlotAdjacencies(t *testing.T) {
	dynamic := func(c *config.Config) { c.Optical.DynamicDivision = true }
	threeMCs := func(c *config.Config) { c.GPU.MemCtrls, c.Optical.VirtualChannels = 3, 3 }
	fourBanks := func(c *config.Config) { c.DRAM.Banks = 4 }
	fourParts := func(c *config.Config) { c.XPoint.Partitions = 4 }
	fourSMs := func(c *config.Config) { c.GPU.SMs = 4 }
	noc := func(c *config.Config) { c.GPU.NoCDetailed = true }
	noc3 := func(c *config.Config) { noc(c); threeMCs(c) }
	threeChannels := func(c *config.Config) { c.GPU.MemCtrls, c.Electrical.Channels = 3, 3 }
	cells := []struct {
		p    config.Platform
		m    config.MemMode
		w    string
		v    Variant
		knob func(*config.Config)
		// stale, when set, is the probe counter the cell must read above
		// 0, so that the next cell has a stale count to ignore.
		stale string
	}{
		{config.OhmBW, config.Planar, "pagerank", BorrowsProbe, dynamic, "borrows"},
		{config.Hetero, config.Planar, "pagerank", BorrowsProbe, nil, ""},
		{config.OhmBW, config.Planar, "backp", WearProbe, nil, "max-wear"},
		{config.Oracle, config.Planar, "backp", WearProbe, nil, ""},
		{config.OhmBase, config.Planar, "lud", DefaultRun, nil, ""},
		{config.OhmBase, config.TwoLevel, "lud", DefaultRun, nil, ""},
		{config.OhmBase, config.Planar, "lud", DefaultRun, nil, ""},
		{config.OhmWOM, config.Planar, "bfstopo", DefaultRun, nil, ""},
		{config.OhmWOM, config.Planar, "bfstopo", DefaultRun, threeMCs, ""},
		{config.OhmWOM, config.Planar, "bfstopo", DefaultRun, nil, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, fourBanks, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, nil, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, fourParts, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, nil, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, fourSMs, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, nil, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, noc, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, noc3, ""},
		{config.OhmBW, config.Planar, "sssp", DefaultRun, noc, ""},
		{config.Hetero, config.Planar, "sssp", DefaultRun, nil, ""},
		{config.Hetero, config.Planar, "sssp", DefaultRun, threeChannels, ""},
		{config.Hetero, config.Planar, "sssp", DefaultRun, nil, ""},
	}
	st := new(RunState)
	for i, c := range cells {
		w, ok := config.WorkloadByName(c.w)
		if !ok {
			t.Fatalf("%s missing", c.w)
		}
		cfg := fastCfg(c.p, c.m)
		if c.knob != nil {
			c.knob(&cfg)
		}
		label := fmt.Sprintf("cell %d %s/%s/%s#%s/%d MCs", i, c.p, c.m, c.w, c.v, cfg.GPU.MemCtrls)
		run := func(dst *RunState) []byte {
			rep, _, err := Run(dst, cfg, w, c.v)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if c.stale != "" && dst != nil && rep.Extra[ProbePrefix+c.stale] <= 0 {
				t.Fatalf("%s: probe %q reads %v, want > 0", label, c.stale, rep.Extra[ProbePrefix+c.stale])
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		fresh, pooled := run(nil), run(st)
		if !bytes.Equal(fresh, pooled) {
			t.Errorf("%s: recycled-state report diverges from new-state report\nnew:      %s\nrecycled: %s",
				label, fresh, pooled)
		}
	}
}
