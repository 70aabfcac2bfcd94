// Package hmem implements the Ohm memory system's memory controllers
// (Figures 4, 6 and 7): the planar and two-level heterogeneous memory
// modes, migration via controller copies, auto-read/write (snarf), swap
// (SWAP-CMD + DDR sequence generator) and reverse-write, with conflict
// detection and dual-route scheduling over the optical channel. One
// controller logic drives either channel: only its data-route transfers
// (Controller.request) branch on whether the platform is optical.
//
// Address interleaving: pages are interleaved across memory controllers
// (rather than lines) so one migration is wholly owned by one controller —
// a simplification over line interleaving that keeps the migration protocol
// identical to the paper's single-channel description while preserving
// controller-level parallelism.
package hmem

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/elec"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xpoint"
)

// MigrationKind is the migration machinery a platform provides.
type MigrationKind int

const (
	// MigrNone means no migration exists (Origin, Oracle).
	MigrNone MigrationKind = iota
	// MigrCopy is controller-driven copying on the data route
	// (Hetero, Ohm-base).
	MigrCopy
	// MigrAutoRW adds the snarf-based auto-read/write function.
	MigrAutoRW
	// MigrWOM adds swap + reverse-write over WOM-coded dual routes.
	MigrWOM
	// MigrBW is MigrWOM with half-coupled-MRR transmitters instead of WOM
	// coding (no request-bandwidth penalty).
	MigrBW
)

// KindFor maps a platform to its migration machinery.
func KindFor(p config.Platform) MigrationKind {
	switch p {
	case config.Hetero, config.OhmBase:
		return MigrCopy
	case config.AutoRW:
		return MigrAutoRW
	case config.OhmWOM:
		return MigrWOM
	case config.OhmBW:
		return MigrBW
	default:
		return MigrNone
	}
}

// cmdBytes is the size of a command/metadata message on the channel
// (request header, SWAP-CMD with DRAM/XPoint addresses and size).
const cmdBytes = 16

// device ids on a virtual channel (for demux arbitration accounting).
const (
	devDRAM   = 0
	devXPoint = 1
)

// bank is one per-controller slice of the memory system.
type bank struct {
	dram   *dram.Device
	xp     *xpoint.Controller // heterogeneous platforms only
	planar *planarState       // heterogeneous platforms in planar mode
	twolvl *twoLevelState     // heterogeneous platforms in two-level mode
}

// HostLink stages pages between host and GPU memory (Origin's spill path
// and the Figure 3 SSD experiment).
type HostLink interface {
	Stage(at sim.Time, n int64, write bool) (done sim.Time)
}

// Controller is the complete Ohm memory system: per-MC devices, the shared
// channel, mode logic and migration machinery.
//
// Each component lives in one slot for the whole life of the controller:
// a bank keeps its DRAM device, XPoint controller and mode state, and the
// controller keeps both channel models, its default PCIe link and its
// resident sets. NewIn reinitializes in place only the components the
// configuration uses. The others keep their arrays, unread, for a later
// cell, so a pooled sweep that alternates platforms does not drop the big
// ones (XPoint wear, two-level tags) on every switch.
type Controller struct {
	cfg  *config.Config
	col  *stats.Collector
	kind MigrationKind
	mcs  []bank

	// access serves a request on the configuration's path: origin, planar,
	// two-level or flat. NewIn picks it once per build.
	access func(c *Controller, mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time

	// The channel models. Optical platforms use opt, electrical ones elec.
	opt  *optical.Channel
	elec *elec.Channel

	// Origin host-spill state.
	host     HostLink
	pcie     pcieHost // the default host link
	resident []resSet // per-MC resident host pages
	resCap   int64    // pages per MC before eviction

	pageBytes int64
	lineBytes int64

	// Pre-interned collector handles for per-access metrics: the hot path
	// accumulates through indices instead of hashing (and, for the latency
	// taps, concatenating) map-key strings on every memory access.
	hDMAEnergy  stats.EnergyHandle
	hStageWait  stats.ExtraHandle
	hDramPart   stats.ExtraHandle
	hConflict   stats.ExtraHandle
	hDramLatSum stats.ExtraHandle
	hDramLatCnt stats.ExtraHandle
	hXPLatSum   stats.ExtraHandle
	hXPLatCnt   stats.ExtraHandle

	// Aggregate ops (inputs to the energy model).
	DRAMReads    uint64
	DRAMWrites   uint64
	XPointReads  uint64
	XPointWrites uint64
}

// New assembles the memory system for cfg. col must not be nil. host may be
// nil; it is only used by platforms that spill (Origin) — a nil host there
// installs the default PCIe model.
func New(cfg *config.Config, col *stats.Collector, host HostLink) (*Controller, error) {
	return NewIn(nil, new(sim.Pools), cfg, col, host)
}

// NewIn is New rebuilding into a recycled controller: the components cfg
// uses are reinitialized in their slots, and every other slot is left as
// it is. re may be nil — New is exactly NewIn(nil, new(sim.Pools), ...) —
// so fresh and pooled construction share one code path, which is what
// keeps pooled results byte-identical.
func NewIn(re *Controller, pools *sim.Pools, cfg *config.Config, col *stats.Collector, host HostLink) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("hmem: nil collector")
	}
	n := cfg.GPU.MemCtrls
	dramPerMC := cfg.Memory.DRAMBytes / int64(n)
	xpPerMC := cfg.Memory.XPointBytes / int64(n)
	lineBytes := int64(cfg.GPU.LineBytes)
	hetero := cfg.Platform.Heterogeneous()
	if re == nil {
		re = &Controller{}
	}
	c := re
	*c = Controller{
		cfg:         cfg,
		col:         col,
		kind:        KindFor(cfg.Platform),
		mcs:         sim.Slots(c.mcs, n),
		opt:         c.opt,
		elec:        c.elec,
		resident:    c.resident,
		pageBytes:   int64(cfg.Memory.PageBytes),
		lineBytes:   lineBytes,
		hDMAEnergy:  col.InternEnergy("dma"),
		hStageWait:  col.InternExtra("origin-stage-wait"),
		hDramPart:   col.InternExtra("origin-dram-part"),
		hConflict:   col.InternExtra("conflict-wait"),
		hDramLatSum: col.InternExtra("dram-lat-sum"),
		hDramLatCnt: col.InternExtra("dram-count"),
		hXPLatSum:   col.InternExtra("xp-lat-sum"),
		hXPLatCnt:   col.InternExtra("xp-count"),
	}

	if cfg.Platform.Optical() {
		c.opt = optical.NewChannelIn(c.opt, pools, cfg.Optical, col)
	} else {
		c.elec = elec.NewIn(c.elec, pools, cfg.Electrical, col)
	}

	for i := range c.mcs {
		b := &c.mcs[i]
		b.dram = dram.NewIn(b.dram, pools, cfg.DRAM)
		if !hetero {
			continue
		}
		b.xp = xpoint.NewControllerIn(b.xp, pools, cfg.XPoint, xpPerMC, cfg.GPU.LineBytes)
		if cfg.Mode == config.Planar {
			b.planar = newPlanarStateIn(b.planar, dramPerMC, c.pageBytes, cfg.Memory.HotThreshold)
		} else {
			b.twolvl = newTwoLevelStateIn(b.twolvl, dramPerMC, lineBytes)
		}
	}

	switch {
	case cfg.Platform == config.Origin:
		c.access = (*Controller).accessOrigin
		c.host = host
		if host == nil {
			c.pcie = defaultHostLink()
			c.host = &c.pcie
		}
		c.resident = sim.Slots(c.resident, n)
		for i := range c.resident {
			c.resident[i].reset()
		}
		c.resCap = max(dramPerMC/c.pageBytes, 1)
	case hetero && cfg.Mode == config.Planar:
		c.access = (*Controller).accessPlanar
	case hetero:
		c.access = (*Controller).accessTwoLevel
	default:
		c.access = (*Controller).accessFlat
	}
	return c, nil
}

// resSet tracks one controller's resident host pages: a direct-indexed
// presence array (pages are dense small integers) plus a FIFO ring for
// deterministic eviction. It replaces a map probed on every Origin access.
type resSet struct {
	present []bool
	fifo    []int64
	head    int // fifo[head:] is the queue; compacted when it outgrows its tail
	count   int
}

func (r *resSet) has(page int64) bool {
	return page < int64(len(r.present)) && r.present[page]
}

func (r *resSet) add(page int64) {
	if page >= int64(len(r.present)) {
		grown := make([]bool, page+1+int64(len(r.present)))
		copy(grown, r.present)
		r.present = grown
	}
	r.present[page] = true
	if r.head > 0 && r.head >= len(r.fifo)-r.head {
		r.fifo = append(r.fifo[:0], r.fifo[r.head:]...)
		r.head = 0
	}
	r.fifo = append(r.fifo, page)
	r.count++
}

// reset empties the set for a pooled rebuild, scrubbing only the pages
// still queued. Invariant: present[p] implies p is in fifo[head:], because
// evictOldest clears its victim's presence bit and compaction only discards
// fifo[:head] — so walking the live queue restores the whole present array.
func (r *resSet) reset() {
	for _, p := range r.fifo[r.head:] {
		r.present[p] = false
	}
	r.fifo = r.fifo[:0]
	r.head = 0
	r.count = 0
}

// evictOldest removes and returns the longest-resident page.
func (r *resSet) evictOldest() int64 {
	victim := r.fifo[r.head]
	r.head++
	r.present[victim] = false
	r.count--
	return victim
}

// Optical returns the optical channel, or nil on electrical platforms.
func (c *Controller) Optical() *optical.Channel {
	if !c.cfg.Platform.Optical() {
		return nil
	}
	return c.opt
}

// XPointAt exposes controller mc's XPoint logic-layer controller (nil on
// DRAM-only platforms); used by wear/endurance reporting.
func (c *Controller) XPointAt(mc int) *xpoint.Controller {
	if !c.cfg.Platform.Heterogeneous() || mc < 0 || mc >= len(c.mcs) {
		return nil
	}
	return c.mcs[mc].xp
}

// route splits a global address into (mc, localAddr): pages interleave
// across controllers.
func (c *Controller) route(addr uint64) (mc int, local uint64) {
	page := int64(addr) / c.pageBytes
	off := int64(addr) % c.pageBytes
	n := int64(len(c.mcs))
	mc = int(page % n)
	local = uint64((page/n)*c.pageBytes + off)
	return mc, local
}

// Access serves one line-granularity memory request arriving at the memory
// controller at time at. It returns when the response is available at the
// controller (read data arrived / write acknowledged). Latency is recorded
// in the collector.
func (c *Controller) Access(at sim.Time, addr uint64, write bool) (done sim.Time) {
	c.col.MemRequests++
	if write {
		c.col.Writes++
	} else {
		c.col.Reads++
	}
	mc, local := c.route(addr)
	done = c.access(c, mc, &c.mcs[mc], at, local, write)
	c.col.MemLatency.Add(done - at)
	return done
}

// accessFlat serves one request from flat DRAM of sufficient capacity
// (Oracle).
func (c *Controller) accessFlat(mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time {
	done := c.dramAccess(mc, b, at, local, write, stats.RegularRequest)
	c.noteDRAMLat(int64(done - at))
	return done
}

// request serializes n bytes between controller mc and device dev on the
// data route of the platform's channel, toward the device when toDevice
// is set, and returns the transfer end. Only the optical channel has a
// demultiplexer that dev steers.
func (c *Controller) request(mc, dev int, toDevice bool, at sim.Time, n int, class stats.Class) sim.Time {
	if c.cfg.Platform.Optical() {
		dir := optical.Backward
		if toDevice {
			dir = optical.Forward
		}
		_, end := c.opt.Transfer(mc, dev, dir, at, n, class)
		return end
	}
	dir := elec.Backward
	if toDevice {
		dir = elec.Forward
	}
	_, end := c.elec.Transfer(mc, dir, at, n, class)
	return end
}

// memRoute serializes n migration bytes on controller mc's memory route,
// the optical channel's second route (Section IV-C). Only the MigrWOM and
// MigrBW kinds migrate over it, and MigrWOM shares the request light with
// WOM coding to do so.
func (c *Controller) memRoute(mc int, at sim.Time, n int) sim.Time {
	if c.kind == MigrWOM {
		_, end := c.opt.TransferWOMShared(mc, at, n)
		return end
	}
	_, end := c.opt.TransferMemRoute(mc, at, n)
	return end
}

// dramAccess performs command transfer + DRAM access + data transfer.
func (c *Controller) dramAccess(mc int, b *bank, at sim.Time, local uint64, write bool, class stats.Class) sim.Time {
	lineB := int(c.lineBytes)
	if write {
		// Command+data to device, then the array write completes.
		xfer := c.request(mc, devDRAM, true, at, cmdBytes+lineB, class)
		done := b.dram.Access(xfer, local, true)
		c.DRAMWrites++
		return done
	}
	cmd := c.request(mc, devDRAM, true, at, cmdBytes, class)
	ready := b.dram.Access(cmd, local, false)
	done := c.request(mc, devDRAM, false, ready, lineB, class)
	c.DRAMReads++
	return done
}

// xpAccess performs command transfer + XPoint access + data transfer.
func (c *Controller) xpAccess(mc int, b *bank, at sim.Time, local uint64, write bool, class stats.Class) sim.Time {
	lineB := int(c.lineBytes)
	if write {
		xfer := c.request(mc, devXPoint, true, at, cmdBytes+lineB, class)
		ack := b.xp.Write(xfer, local)
		c.XPointWrites++
		return ack
	}
	cmd := c.request(mc, devXPoint, true, at, cmdBytes, class)
	ready := b.xp.Read(cmd, local)
	done := c.request(mc, devXPoint, false, ready, lineB, class)
	c.XPointReads++
	return done
}

// accessOrigin is the DRAM-only small-capacity path: non-resident pages are
// staged over the host link first (the frequent host<->GPU copies that cost
// Origin 42% versus Hetero in Figure 16).
func (c *Controller) accessOrigin(mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time {
	page := int64(local) / c.pageBytes
	res := &c.resident[mc]
	start := at
	if !res.has(page) {
		if int64(res.count) >= c.resCap {
			// Evict the oldest page (FIFO). The spill traffic is what
			// matters, not the exact victim — but the victim must be
			// deterministic: result caching and parallel-vs-serial sweep
			// equivalence both require identical reruns, and picking the
			// victim via map iteration order broke that.
			res.evictOldest()
		}
		res.add(page)
		start = c.host.Stage(at, c.pageBytes, false)
		c.col.HostBytes += uint64(c.pageBytes)
		c.col.HostTime += start - at
		// PCIe DMA transfer energy (pJ/bit), the basis of Figure 3b's DMA
		// energy fraction; the coefficient sits a few x above the on-board
		// electrical channel's per-bit cost.
		c.col.AddEnergyH(c.hDMAEnergy, float64(c.pageBytes)*8*3)
	}
	wrapped := uint64(int64(local) % (c.cfg.Memory.DRAMBytes / int64(len(c.mcs))))
	done := c.dramAccess(mc, b, start, wrapped, write, stats.RegularRequest)
	c.col.AddExtraH(c.hStageWait, float64(start-at))
	c.col.AddExtraH(c.hDramPart, float64(done-start))
	return done
}
