package hmem

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

func mkCtrl(t *testing.T, p config.Platform, m config.MemMode) (*Controller, *stats.Collector) {
	t.Helper()
	cfg := config.Default(p, m)
	col := stats.NewCollector()
	c, err := New(&cfg, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, col
}

func TestKindFor(t *testing.T) {
	want := map[config.Platform]MigrationKind{
		config.Origin: MigrNone, config.Oracle: MigrNone,
		config.Hetero: MigrCopy, config.OhmBase: MigrCopy,
		config.AutoRW: MigrAutoRW, config.OhmWOM: MigrWOM, config.OhmBW: MigrBW,
	}
	for p, k := range want {
		if got := KindFor(p); got != k {
			t.Errorf("KindFor(%s) = %d, want %d", p, got, k)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	cfg.GPU.SMs = 0
	if _, err := New(&cfg, stats.NewCollector(), nil); err == nil {
		t.Fatal("New accepted invalid config")
	}
	good := config.Default(config.OhmBase, config.Planar)
	if _, err := New(&good, nil, nil); err == nil {
		t.Fatal("New accepted nil collector")
	}
}

func TestAllPlatformsConstruct(t *testing.T) {
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			c, _ := mkCtrl(t, p, m)
			if done := c.Access(0, 0, false); done <= 0 {
				t.Errorf("%s/%s: first access returned %s", p, m, done)
			}
		}
	}
}

func TestRouteInterleavesPages(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	mc0, l0 := c.route(0)
	mc1, _ := c.route(pb)
	mc6, l6 := c.route(6 * pb)
	if mc0 != 0 || mc1 != 1 || mc6 != 0 {
		t.Fatalf("page interleave wrong: %d %d %d", mc0, mc1, mc6)
	}
	if l0 != 0 || l6 != pb {
		t.Fatalf("local addresses wrong: %d %d", l0, l6)
	}
	// Offsets within a page are preserved.
	_, lOff := c.route(6*pb + 128)
	if lOff != pb+128 {
		t.Fatalf("offset lost: %d", lOff)
	}
}

func TestOracleLatencyIsDRAMClass(t *testing.T) {
	c, col := mkCtrl(t, config.Oracle, config.Planar)
	done := c.Access(0, 0, false)
	// Command transfer + cold DRAM activate+CAS+burst + line response.
	if done < 36*sim.Nanosecond || done > 200*sim.Nanosecond {
		t.Fatalf("Oracle read latency %s not DRAM-class", done)
	}
	if col.MemRequests != 1 || col.Reads != 1 {
		t.Fatal("request accounting missing")
	}
}

// inDRAM reports whether a logical page is the DRAM-resident member of its
// group.
func (p *planarState) inDRAM(page int64) bool {
	g := p.group(page)
	return g < int64(len(p.groups)) && p.groups[g].owner() == page
}

func TestPlanarXPointSlowerThanDRAM(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	// Local page 0 is group 0's DRAM page; local page 1 is the group's
	// first XPoint page (global address pb*MCs under page interleaving).
	dramDone := c.Access(0, 0, false)
	xpAddr := pb * uint64(len(c.mcs))
	xpDone := c.Access(0, xpAddr, false) - 0
	if xpDone <= dramDone {
		t.Fatalf("XPoint access (%s) must be slower than DRAM (%s)", xpDone, dramDone)
	}
	if xpDone < c.cfg.XPoint.ReadLatency {
		t.Fatalf("XPoint read %s below media latency", xpDone)
	}
}

func TestPlanarHotPageSwaps(t *testing.T) {
	c, col := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	xpAddr := pb * uint64(len(c.mcs)) // group 0's first XPoint page
	at := sim.Time(0)
	for i := 0; i < c.cfg.Memory.HotThreshold; i++ {
		at = c.Access(at, xpAddr, false)
	}
	if c.mcs[0].planar.Swaps != 1 {
		t.Fatalf("swaps = %d after %d hot accesses, want 1", c.mcs[0].planar.Swaps, c.cfg.Memory.HotThreshold)
	}
	if col.Migrations != 1 {
		t.Fatalf("collector migrations = %d", col.Migrations)
	}
	if !c.mcs[0].planar.inDRAM(int64(xpAddr / pb / uint64(len(c.mcs)))) {
		t.Fatal("hot page not resident in DRAM after swap")
	}
	// After the swap completes (the window is dominated by the 763ns XPoint
	// media write), the page is served from DRAM: fast. Local page 1 maps
	// to group 1 under the modulo layout.
	probe := c.mcs[0].planar.groups[1].until + sim.Microsecond
	fast := c.Access(probe, xpAddr, false) - probe
	if fast >= c.cfg.XPoint.ReadLatency {
		t.Fatalf("post-swap access still XPoint-slow: %s", fast)
	}
}

func TestPlanarSwapEvictsOldOwner(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	nMC := uint64(len(c.mcs))
	xpAddr := pb * nMC // group 0's first XPoint page
	at := sim.Time(0)
	for i := 0; i < c.cfg.Memory.HotThreshold; i++ {
		at = c.Access(at, xpAddr, false)
	}
	// Page 0 (old owner of group 0) must now be in XPoint.
	if c.mcs[0].planar.inDRAM(0) {
		t.Fatal("evicted page still marked DRAM-resident")
	}
	slow := c.Access(at, 0, false) - at
	if slow < c.cfg.XPoint.ReadLatency {
		t.Fatalf("evicted page access %s should be XPoint-slow", slow)
	}
}

func TestPlanarMigrationChannelCostByPlatform(t *testing.T) {
	// The data-route bytes consumed by one swap must strictly shrink as the
	// machinery improves: copy (4 page transfers) > auto-rw (3) > swap via
	// dual routes (command only).
	cost := func(p config.Platform) uint64 {
		c, col := mkCtrl(t, p, config.Planar)
		pb := uint64(c.cfg.Memory.PageBytes)
		nMC := uint64(len(c.mcs))
		xpAddr := pb * nMC
		at := sim.Time(0)
		for i := 0; i < c.cfg.Memory.HotThreshold; i++ {
			at = c.Access(at, xpAddr, false)
		}
		if c.mcs[0].planar.Swaps != 1 {
			t.Fatalf("%s: swaps = %d", p, c.mcs[0].planar.Swaps)
		}
		// Bytes that occupied the data route as migration traffic: total
		// copy bytes minus those carried by the memory route.
		return col.ChannelBytes[stats.DataCopy] - col.DualRouteBytes
	}
	base := cost(config.OhmBase)
	auto := cost(config.AutoRW)
	wom := cost(config.OhmWOM)
	bw := cost(config.OhmBW)
	pageB := uint64(config.Default(config.OhmBase, config.Planar).Memory.PageBytes)
	if base < 4*pageB {
		t.Fatalf("copy baseline moved %d bytes on data route, want >= 4 pages", base)
	}
	if auto >= base || auto < 2*pageB {
		t.Fatalf("auto-rw data-route migration bytes %d, want in [2 pages, base %d)", auto, base)
	}
	if wom >= auto || wom > 4*cmdBytes {
		t.Fatalf("WOM swap data-route migration bytes = %d, want only command traffic", wom)
	}
	if bw != wom {
		t.Fatalf("BW (%d) and WOM (%d) should move the same command bytes", bw, wom)
	}
}

func TestPlanarDualRoutesCarryMigration(t *testing.T) {
	c, col := mkCtrl(t, config.OhmWOM, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	nMC := uint64(len(c.mcs))
	xpAddr := pb * nMC // group 0's first XPoint page
	at := sim.Time(0)
	for i := 0; i < c.cfg.Memory.HotThreshold; i++ {
		at = c.Access(at, xpAddr, false)
	}
	if col.DualRouteBytes < 2*pb {
		t.Fatalf("dual-route bytes = %d, want >= both page transfers (%d)", col.DualRouteBytes, 2*pb)
	}
	if c.opt.MemRouteBusy() == 0 {
		t.Fatal("memory route never used")
	}
}

func TestTwoLevelHitVsMiss(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.TwoLevel)
	// First access: cold miss (XPoint fetch).
	missLat := c.Access(0, 0, false)
	if missLat < c.cfg.XPoint.ReadLatency {
		t.Fatalf("cold miss latency %s below XPoint read", missLat)
	}
	// Second access to the same line: DRAM hit.
	start := missLat * 2
	hitLat := c.Access(start, 0, false) - start
	if hitLat >= c.cfg.XPoint.ReadLatency/2 {
		t.Fatalf("hit latency %s not DRAM-class", hitLat)
	}
	tl := c.mcs[0].twolvl
	if tl.Hits != 1 || tl.MissClean != 1 {
		t.Fatalf("hits=%d clean misses=%d", tl.Hits, tl.MissClean)
	}
}

func TestTwoLevelDirtyEviction(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.TwoLevel)
	tl := c.mcs[0].twolvl
	nMC := int64(len(c.mcs))
	// Write line 0 (dirty), then access the conflicting line that maps to
	// the same set: global stride = sets * lineBytes * MCs within one page?
	// Sets cover dramPerMC/lineB lines; conflict line index = nSets.
	conflict := uint64(tl.nSets * tl.lineBytes)
	// Keep it in MC 0: address conflict*nMC pages away... simpler: compute
	// a local conflict through the page interleave. Page-sized strides of
	// nMC keep MC 0.
	pb := int64(c.cfg.Memory.PageBytes)
	pagesPerSetSpan := (tl.nSets * tl.lineBytes) / pb
	globalConflict := uint64(pagesPerSetSpan * nMC * pb)
	_ = conflict

	at := c.Access(0, 0, true) // dirty line 0 in set 0
	if !tl.dirty[0] {
		t.Fatal("write did not mark set dirty")
	}
	at = c.Access(at, globalConflict, false)
	if tl.MissDirty != 1 {
		t.Fatalf("dirty misses = %d, want 1", tl.MissDirty)
	}
	// Line 0 must have been evicted: re-access misses again.
	before := tl.Hits
	c.Access(at*2, 0, false)
	if tl.Hits != before {
		t.Fatal("evicted line still hit")
	}
}

func TestTwoLevelWOMEliminatesMigrationOnDataRoute(t *testing.T) {
	// Figure 18: Ohm-WOM in two-level mode fully eliminates data-route
	// occupancy from migration (evictions snarfed, fills reverse-written).
	run := func(p config.Platform) (dataCopyBusy sim.Time) {
		c, col := mkCtrl(t, p, config.TwoLevel)
		tl := c.mcs[0].twolvl
		nMC := int64(len(c.mcs))
		pb := int64(c.cfg.Memory.PageBytes)
		span := (tl.nSets * tl.lineBytes) / pb * nMC * pb
		at := sim.Time(0)
		// Generate dirty-evicting conflict misses.
		for i := 0; i < 6; i++ {
			at = c.Access(at, uint64(int64(i)*span), true)
		}
		return col.ChannelBusy[stats.DataCopy]
	}
	base := run(config.OhmBase)
	wom := run(config.OhmWOM)
	if base == 0 {
		t.Fatal("baseline generated no migration channel traffic")
	}
	if wom != 0 {
		t.Fatalf("Ohm-WOM two-level data-route migration busy = %s, want 0", wom)
	}
}

func TestOriginSpillsToHost(t *testing.T) {
	c, col := mkCtrl(t, config.Origin, config.Planar)
	// Touch more pages than the per-MC resident capacity on MC 0.
	pb := int64(c.cfg.Memory.PageBytes)
	nMC := int64(len(c.mcs))
	at := sim.Time(0)
	for i := int64(0); i < c.resCap+4; i++ {
		at = c.Access(at, uint64(i*nMC*pb), false)
	}
	if col.HostBytes == 0 {
		t.Fatal("Origin never staged pages from host")
	}
	// Re-touching a just-staged page must not restage it.
	hb := col.HostBytes
	c.Access(at, uint64((c.resCap+3)*nMC*pb), false)
	if col.HostBytes != hb {
		t.Fatal("resident page restaged")
	}
}

func TestOriginFirstTouchSlow(t *testing.T) {
	c, _ := mkCtrl(t, config.Origin, config.Planar)
	first := c.Access(0, 0, false)
	if first < sim.Microsecond {
		t.Fatalf("first touch %s should include host staging", first)
	}
	second := c.Access(first, 128, false) - first
	if second >= sim.Microsecond {
		t.Fatalf("resident access %s should be DRAM-class", second)
	}
}

func TestHeteroUsesElectricalChannel(t *testing.T) {
	c, _ := mkCtrl(t, config.Hetero, config.Planar)
	if c.elec == nil || c.Optical() != nil {
		t.Fatal("Hetero must use the electrical channel")
	}
	c.Access(0, 0, false)
	if c.elec.Busy() == 0 {
		t.Fatal("electrical channel unused")
	}
}

func TestOpticalPlatformsUseOpticalChannel(t *testing.T) {
	for _, p := range config.OpticalPlatforms() {
		c, _ := mkCtrl(t, p, config.Planar)
		if c.Optical() == nil {
			t.Errorf("%s must use the optical channel", p)
		}
	}
}

func TestConflictDetectionBlocksMigratingGroup(t *testing.T) {
	c, _ := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	nMC := uint64(len(c.mcs))
	xpAddr := pb * nMC // group 0's first XPoint page // group 0
	at := sim.Time(0)
	for i := 0; i < c.cfg.Memory.HotThreshold; i++ {
		at = c.Access(at, xpAddr, false)
	}
	until := c.mcs[0].planar.groups[1].until // local page 1 -> group 1
	if until <= at {
		t.Fatal("no migration window recorded")
	}
	// An access to a swap participant issued mid-swap completes after the
	// swap ends; the hot page itself is the participant here.
	blocked := c.Access(at, xpAddr, false)
	if blocked < until {
		t.Fatalf("conflicting access done %s before migration end %s", blocked, until)
	}
}

func TestLatencyRecorded(t *testing.T) {
	c, col := mkCtrl(t, config.OhmBase, config.TwoLevel)
	c.Access(0, 0, false)
	c.Access(sim.Millisecond, 0, false)
	if col.MemLatency.Count != 2 {
		t.Fatalf("latency samples = %d", col.MemLatency.Count)
	}
	if col.MemLatency.Mean() <= 0 {
		t.Fatal("zero mean latency")
	}
}

func TestWritesAckFasterThanReadsOnXPoint(t *testing.T) {
	// DDR-T buffered writes ack quickly; reads pay media latency.
	c, _ := mkCtrl(t, config.OhmBase, config.Planar)
	pb := uint64(c.cfg.Memory.PageBytes)
	nMC := uint64(len(c.mcs))
	xpAddr := pb * nMC // group 0's first XPoint page
	rd := c.Access(0, xpAddr, false)
	c2, _ := mkCtrl(t, config.OhmBase, config.Planar)
	wr := c2.Access(0, xpAddr, true)
	if wr >= rd {
		t.Fatalf("buffered XPoint write ack (%s) should beat read (%s)", wr, rd)
	}
}

// TestAccessSteadyStateAllocFree: once its tables and maps have grown,
// Controller.Access allocates nothing on the swap and reverse-write
// platforms, in both modes, while DRAM-cache misses and planar swaps keep
// happening.
func TestAccessSteadyStateAllocFree(t *testing.T) {
	for _, p := range []config.Platform{config.OhmWOM, config.OhmBW} {
		// Two-level: two lines aliasing onto one DRAM-cache set of MC 0
		// evict each other, so every access misses and reverse-writes.
		c, _ := mkCtrl(t, p, config.TwoLevel)
		tl := c.mcs[0].twolvl
		pb, nMC := c.pageBytes, int64(len(c.mcs))
		conflict := uint64(tl.nSets * tl.lineBytes / pb * nMC * pb)
		var at sim.Time
		requireAllocFree(t, p.String()+"/two-level", func() {
			at = c.Access(at, 0, false)
			at = c.Access(at, conflict, false)
		}, func() uint64 { return tl.MissClean + tl.MissDirty })

		// Planar: two XPoint pages of one group take turns getting hot
		// and swapping into its DRAM slot, each round past the group's
		// swap cooldown.
		c, _ = mkCtrl(t, p, config.Planar)
		pl := c.mcs[0].planar
		pages := [2]uint64{uint64(nMC * pb), uint64((1 + pl.nGroups) * nMC * pb)}
		round := 0
		requireAllocFree(t, p.String()+"/planar", func() {
			at += 100 * sim.Microsecond
			for i := 0; i < pl.hotThresh; i++ {
				at = c.Access(at, pages[round%2], false)
			}
			round++
		}, func() uint64 { return pl.Swaps })
	}
}

// TestPlanarRebuildScrubs: a pooled rebuild hands the next cell planar
// state that reads as new even after the previous cell swapped pages,
// heated one and touched every controller's highest group. Across the
// arrays' whole capacity every slot owner reads -1 with no conflict
// window and no cooldown, and every heat count reads 0; the rebuilt
// controller then reports byte-identically to a fresh one.
func TestPlanarRebuildScrubs(t *testing.T) {
	cfg := config.Default(config.OhmWOM, config.Planar)
	pools := new(sim.Pools)
	c, err := NewIn(nil, pools, &cfg, stats.NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nMC, pb := int64(len(c.mcs)), c.pageBytes
	nGroups := c.mcs[0].planar.nGroups
	thresh := int64(cfg.Memory.HotThreshold)
	// cell swaps local page 1 into group 1's slot and the highest group's
	// second page into its slot, then leaves page 2 one access short of
	// hot, on every controller. Phases start 100 us apart, past the
	// previous swap and its group's cooldown.
	phases := []struct{ page, n int64 }{{1, thresh}, {2*nGroups - 1, thresh}, {2, thresh - 1}}
	cell := func(c *Controller) sim.Time {
		var at sim.Time
		for mc := int64(0); mc < nMC; mc++ {
			for _, ph := range phases {
				at += 100 * sim.Microsecond
				for i := int64(0); i < ph.n; i++ {
					at = c.Access(at, uint64((ph.page*nMC+mc)*pb), false)
				}
			}
		}
		return at
	}
	cell(c)
	for mc, b := range c.mcs {
		pl := b.planar
		if pl.Swaps != 2 || pl.heat[2] != uint32(thresh-1) || int64(len(pl.groups)) != nGroups || !pl.inDRAM(2*nGroups-1) {
			t.Fatalf("mc %d before rebuild: %d swaps, page 2 heat %d, %d of %d groups touched; want 2 swaps, heat %d and every group",
				mc, pl.Swaps, pl.heat[2], len(pl.groups), nGroups, thresh-1)
		}
	}

	// Rebuild for a new cell, as a pooled run state does.
	pools.Reset()
	col := stats.NewCollector()
	if c, err = NewIn(c, pools, &cfg, col, nil); err != nil {
		t.Fatal(err)
	}
	recycled := 0
	for mc, b := range c.mcs {
		pl := b.planar
		if len(pl.groups) != 0 || len(pl.heat) != 0 || pl.Swaps != 0 || pl.swapBusyUntil != 0 {
			t.Fatalf("mc %d after rebuild: %d groups and %d pages touched, %d swaps, swap busy until %s; want none",
				mc, len(pl.groups), len(pl.heat), pl.Swaps, pl.swapBusyUntil)
		}
		for g, gr := range pl.groups[:cap(pl.groups)] {
			if gr.owner() != -1 || gr.evicted != 0 || gr.until != 0 {
				t.Fatalf("mc %d group %d after rebuild: owner %d, evicted %d, last swap %s; want a group that never swapped",
					mc, g, gr.owner(), gr.evicted, gr.until)
			}
		}
		for page, h := range pl.heat[:cap(pl.heat)] {
			if h != 0 {
				t.Fatalf("mc %d page %d after rebuild: heat %d, want 0", mc, page, h)
			}
		}
		if cap(pl.heat) > 0 {
			recycled++
		}
	}
	if recycled != int(nMC) {
		t.Fatalf("%d of %d controllers kept their planar arrays across the rebuild", recycled, nMC)
	}

	fresh, freshCol := mkCtrl(t, config.OhmWOM, config.Planar)
	end, freshEnd := cell(c), cell(fresh)
	got, err := json.Marshal(col.Snapshot(end, cfg.GPU.CoreFreqHz))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(freshCol.Snapshot(freshEnd, cfg.GPU.CoreFreqHz))
	if err != nil {
		t.Fatal(err)
	}
	if end != freshEnd || !bytes.Equal(got, want) {
		t.Fatalf("rebuilt controller ends at %s with report\n%s\nfresh one at %s with\n%s", end, got, freshEnd, want)
	}
}

// requireAllocFree runs round until the controller's state has grown, then
// requires that further rounds allocate nothing and that each of them
// produced at least one event (a miss or a swap).
func requireAllocFree(t *testing.T, name string, round func(), events func() uint64) {
	t.Helper()
	for i := 0; i < 64; i++ {
		round()
	}
	before := events()
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("%s: %.1f allocations per round, want 0", name, allocs)
	}
	// AllocsPerRun adds one warm-up round.
	if n := events() - before; n < runs+1 {
		t.Errorf("%s: %d misses or swaps in %d rounds, want one or more per round", name, n, runs+1)
	}
}
