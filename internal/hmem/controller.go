// Package hmem implements the Ohm memory system's memory controllers
// (Figures 4, 6 and 7): the planar and two-level heterogeneous memory
// modes, migration via controller copies, auto-read/write (snarf), swap
// (SWAP-CMD + DDR sequence generator) and reverse-write, with conflict
// detection and dual-route scheduling over the optical channel.
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
	"repro/internal/ddrt"
	"repro/internal/dram"
	"repro/internal/ecc"
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

// link abstracts the memory channel so the controller logic is identical
// over optical and electrical interconnects. toDevice selects the forward
// (controller -> device) or backward (device -> controller) path.
type link interface {
	// request serializes n bytes between controller vc and device dev on
	// the data route, returning the transfer end.
	request(vc, dev int, toDevice bool, at sim.Time, n int, class stats.Class) sim.Time
	// memRoute serializes n migration bytes on the second route (dual
	// routes). wom selects WOM-coded sharing. Falls back to the data route
	// when the link has no dual routes.
	memRoute(vc int, at sim.Time, n int, wom bool) sim.Time
	// dual reports whether a second route exists.
	dual() bool
}

type opticalLink struct {
	ch        *optical.Channel
	dualRoute bool
}

func (l *opticalLink) request(vc, dev int, toDevice bool, at sim.Time, n int, class stats.Class) sim.Time {
	dir := optical.Backward
	if toDevice {
		dir = optical.Forward
	}
	_, end := l.ch.Transfer(vc, dev, dir, at, n, class)
	return end
}

func (l *opticalLink) memRoute(vc int, at sim.Time, n int, wom bool) sim.Time {
	if !l.dualRoute {
		_, end := l.ch.Transfer(vc, 1, optical.Forward, at, n, stats.DataCopy)
		return end
	}
	if wom {
		_, end := l.ch.TransferWOMShared(vc, at, n)
		return end
	}
	_, end := l.ch.TransferMemRoute(vc, at, n)
	return end
}

func (l *opticalLink) dual() bool { return l.dualRoute }

type elecLink struct {
	ch *elec.Channel
}

func (l *elecLink) request(vc, _ int, toDevice bool, at sim.Time, n int, class stats.Class) sim.Time {
	dir := elec.Backward
	if toDevice {
		dir = elec.Forward
	}
	_, end := l.ch.Transfer(vc, dir, at, n, class)
	return end
}

func (l *elecLink) memRoute(vc int, at sim.Time, n int, _ bool) sim.Time {
	_, end := l.ch.Transfer(vc, elec.Forward, at, n, stats.DataCopy)
	return end
}

func (l *elecLink) dual() bool { return false }

// device ids on a virtual channel (for demux arbitration accounting).
const (
	devDRAM   = 0
	devXPoint = 1
)

// bank is one per-controller slice of the memory system.
type bank struct {
	dram *dram.Device
	xp   *xpoint.Controller // nil on DRAM-only platforms

	planar *planarState // nil unless planar heterogeneous
	twolvl *twoLevelState
}

// HostLink stages pages between host and GPU memory (Origin's spill path
// and the Figure 3 SSD experiment).
type HostLink interface {
	Stage(at sim.Time, n int64, write bool) (done sim.Time)
}

// Controller is the complete Ohm memory system: per-MC devices, the shared
// channel, mode logic and migration machinery.
type Controller struct {
	cfg  *config.Config
	col  *stats.Collector
	kind MigrationKind
	link link
	mcs  []bank

	// Optical/electrical concrete channels retained for accounting.
	Opt  *optical.Channel
	Elec *elec.Channel

	// Origin host-spill state.
	host     HostLink
	resident []resSet // per-MC resident host pages
	resCap   int64    // pages per MC before eviction
	hostOnly bool     // spill path active (DRAM-only, small capacity)

	pageBytes int64
	lineBytes int64

	// ddrtMsgs is the buffer the DDR-T handshake checks rebuild each
	// migration's message sequence into.
	ddrtMsgs []ddrt.Msg

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

	// spare* stash recycled platform-dependent components that the current
	// configuration does not use, so a pooled rebuild that alternates
	// platforms (a sweep grid's inner loop) keeps the big arrays — XPoint
	// wear, two-level tags — instead of dropping them on every platform
	// switch. Invisible to simulation: only NewIn reads or writes them.
	spareXP     []*xpoint.Controller
	sparePlanar []*planarState
	spareTwolvl []*twoLevelState
	spareOpt    *optical.Channel
	spareElec   *elec.Channel
	spareHost   *pcieHost
	spareRes    []resSet
}

// New assembles the memory system for cfg. col must not be nil. host may be
// nil; it is only used by platforms that spill (Origin) — a nil host there
// installs the default PCIe model.
func New(cfg *config.Config, col *stats.Collector, host HostLink) (*Controller, error) {
	return NewIn(nil, new(sim.Pools), cfg, col, host)
}

// NewIn is New rebuilding into a recycled controller: device structures,
// per-MC state and channel models are reinitialized in place, and
// platform-dependent components the new configuration does not need move
// to the spare stashes for a later cell. re may be nil — New is exactly
// NewIn(nil, new(sim.Pools), ...) — so fresh and pooled construction share
// one code path, which is what keeps pooled results byte-identical.
func NewIn(re *Controller, pools *sim.Pools, cfg *config.Config, col *stats.Collector, host HostLink) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("hmem: nil collector")
	}
	if re == nil {
		re = &Controller{}
	}
	c := re

	// Scavenge the previous incarnation's recyclable parts into locals
	// before the struct is overwritten. Per-bank sub-objects are nil'ed in
	// the retained bank slice so no component is ever reachable from two
	// owners; dram devices stay with their slot (they are only ever owned
	// by that slot).
	spXP, spPl, spTL := c.spareXP, c.sparePlanar, c.spareTwolvl
	spOpt, spElec, spHost, spRes := c.spareOpt, c.spareElec, c.spareHost, c.spareRes
	if c.Opt != nil {
		spOpt = c.Opt
	}
	if c.Elec != nil {
		spElec = c.Elec
	}
	if ph, ok := c.host.(*pcieHost); ok {
		spHost = ph
	}
	if c.resident != nil {
		spRes = c.resident
	}
	mcs := c.mcs
	for i := range mcs {
		b := &mcs[i]
		if b.xp != nil {
			spXP = append(spXP, b.xp)
			b.xp = nil
		}
		if b.planar != nil {
			spPl = append(spPl, b.planar)
			b.planar = nil
		}
		if b.twolvl != nil {
			spTL = append(spTL, b.twolvl)
			b.twolvl = nil
		}
	}

	*c = Controller{
		cfg:         cfg,
		col:         col,
		kind:        KindFor(cfg.Platform),
		pageBytes:   int64(cfg.Memory.PageBytes),
		lineBytes:   int64(cfg.GPU.LineBytes),
		ddrtMsgs:    c.ddrtMsgs[:0],
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
		c.Opt = optical.NewChannelIn(spOpt, pools, cfg.Optical, col)
		spOpt = nil
		c.link = &opticalLink{ch: c.Opt, dualRoute: c.kind == MigrAutoRW || c.kind == MigrWOM || c.kind == MigrBW}
	} else {
		c.Elec = elec.NewIn(spElec, pools, cfg.Electrical, col)
		spElec = nil
		c.link = &elecLink{ch: c.Elec}
	}

	n := cfg.GPU.MemCtrls
	if cap(mcs) < n {
		mcs = make([]bank, n)
	} else {
		mcs = mcs[:n]
	}
	c.mcs = mcs
	dramPerMC := cfg.Memory.DRAMBytes / int64(n)
	xpPerMC := cfg.Memory.XPointBytes / int64(n)
	for i := range c.mcs {
		b := &c.mcs[i]
		b.dram = dram.NewIn(b.dram, pools, cfg.DRAM)
		if cfg.Platform.Heterogeneous() {
			var reXP *xpoint.Controller
			if k := len(spXP); k > 0 {
				reXP, spXP = spXP[k-1], spXP[:k-1]
			}
			b.xp = xpoint.NewControllerIn(reXP, pools, cfg.XPoint, xpPerMC, cfg.GPU.LineBytes)
			switch cfg.Mode {
			case config.Planar:
				var rePl *planarState
				if k := len(spPl); k > 0 {
					rePl, spPl = spPl[k-1], spPl[:k-1]
				}
				b.planar = newPlanarStateIn(rePl, dramPerMC, c.pageBytes, cfg.Memory.HotThreshold)
			case config.TwoLevel:
				// The tag-in-ECC design (Section III-B) only works while
				// the direct-map tag fits the ECC region's spare bits. The
				// DRAM cache maps the XPoint space (inclusive), so the tag
				// distinguishes XPoint lines aliasing onto one set.
				totalLines := xpPerMC / c.lineBytes
				nSets := dramPerMC / c.lineBytes
				if need := ecc.TagBitsNeeded(totalLines, nSets); need > ecc.TagBits {
					return nil, fmt.Errorf(
						"hmem: two-level tag needs %d bits, exceeding the %d-bit ECC budget (capacity ratio too large)",
						need, ecc.TagBits)
				}
				var reTL *twoLevelState
				if k := len(spTL); k > 0 {
					reTL, spTL = spTL[k-1], spTL[:k-1]
				}
				b.twolvl = newTwoLevelStateIn(reTL, dramPerMC, c.lineBytes)
			}
		}
	}

	if cfg.Platform == config.Origin {
		c.hostOnly = true
		c.host = host
		if c.host == nil {
			c.host = defaultHostLinkIn(spHost, pools)
			spHost = nil
		}
		resident := spRes
		spRes = nil
		if cap(resident) < n {
			resident = make([]resSet, n)
		} else {
			resident = resident[:n]
			for i := range resident {
				resident[i].reset()
			}
		}
		c.resident = resident
		c.resCap = dramPerMC / c.pageBytes
		if c.resCap < 1 {
			c.resCap = 1
		}
	}

	// Whatever was not consumed stays stashed for the next rebuild.
	c.spareXP, c.sparePlanar, c.spareTwolvl = spXP, spPl, spTL
	c.spareOpt, c.spareElec, c.spareHost, c.spareRes = spOpt, spElec, spHost, spRes
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

// Kind returns the controller's migration machinery.
func (c *Controller) Kind() MigrationKind { return c.kind }

// XPointAt exposes controller mc's XPoint logic-layer controller (nil on
// DRAM-only platforms); used by wear/endurance reporting.
func (c *Controller) XPointAt(mc int) *xpoint.Controller {
	if mc < 0 || mc >= len(c.mcs) {
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
	b := &c.mcs[mc]

	switch {
	case c.hostOnly:
		done = c.accessOrigin(mc, b, at, local, write)
	case b.planar != nil:
		done = c.accessPlanar(mc, b, at, local, write)
	case b.twolvl != nil:
		done = c.accessTwoLevel(mc, b, at, local, write)
	default:
		// Oracle-style flat DRAM of sufficient capacity.
		done = c.dramAccess(mc, b, at, local, write, stats.RegularRequest)
		c.noteDRAMLat(int64(done - at))
	}
	c.col.MemLatency.Add(done - at)
	return done
}

// dramAccess performs command transfer + DRAM access + data transfer.
func (c *Controller) dramAccess(mc int, b *bank, at sim.Time, local uint64, write bool, class stats.Class) sim.Time {
	lineB := int(c.lineBytes)
	if write {
		// Command+data to device, then the array write completes.
		xfer := c.link.request(mc, devDRAM, true, at, cmdBytes+lineB, class)
		done := b.dram.Access(xfer, local, true)
		c.DRAMWrites++
		return done
	}
	cmd := c.link.request(mc, devDRAM, true, at, cmdBytes, class)
	ready := b.dram.Access(cmd, local, false)
	done := c.link.request(mc, devDRAM, false, ready, lineB, class)
	c.DRAMReads++
	return done
}

// xpAccess performs command transfer + XPoint access + data transfer.
func (c *Controller) xpAccess(mc int, b *bank, at sim.Time, local uint64, write bool, class stats.Class) sim.Time {
	lineB := int(c.lineBytes)
	if write {
		xfer := c.link.request(mc, devXPoint, true, at, cmdBytes+lineB, class)
		ack := b.xp.Write(xfer, local)
		c.XPointWrites++
		return ack
	}
	cmd := c.link.request(mc, devXPoint, true, at, cmdBytes, class)
	ready := b.xp.Read(cmd, local)
	done := c.link.request(mc, devXPoint, false, ready, lineB, class)
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
