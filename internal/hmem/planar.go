package hmem

import (
	"fmt"

	"repro/internal/ddrt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// planarState implements the planar memory mode (Figure 7a): the unified
// address space is split into groups of one DRAM page plus R XPoint pages
// (R = capacity ratio). Kernel data is allocated in the groups' XPoint
// pages, interleaved across all groups (page mod nGroups) so every DRAM
// slot is reachable, while each slot initially holds unrelated cold data —
// planar kernels therefore suffer NVM latency until hot pages migrate,
// exactly the behaviour Section III-B describes. A hot XPoint page swaps
// with its group's DRAM page; a mapping table redirects later accesses.
// The design is the OS-transparent migration of [65].
type planarState struct {
	nGroups   int64
	ratio     int64
	pageBytes int64
	hotThresh int

	// slotOwner[g] is the logical kernel page currently occupying group g's
	// DRAM slot; absent means the slot still holds its initial cold data.
	slotOwner map[int64]int64
	// heat counts accesses to non-resident pages since their last swap.
	heat map[int64]int
	// migratingUntil blocks conflicting accesses while a group's swap is in
	// flight (the conflict-detection mechanism of Section IV-B). Only the
	// two pages participating in the swap conflict; other pages of the
	// group proceed.
	migratingUntil map[int64]sim.Time
	swapPages      map[int64][2]int64
	// lastSwap enforces a per-group cooldown so two hot pages sharing a
	// group do not ping-pong the DRAM slot.
	lastSwap map[int64]sim.Time
	cooldown sim.Time
	// swapBusyUntil serializes swaps per controller: a new SWAP-CMD is only
	// issued after the previous swap's completion handshake (Figure 11
	// steps 5-6), which bounds migration backlog exactly as the hardware
	// protocol does.
	swapBusyUntil sim.Time

	Swaps uint64
}

func newPlanarState(dramBytes, xpBytes, pageBytes int64, hotThresh int) *planarState {
	return newPlanarStateIn(nil, dramBytes, xpBytes, pageBytes, hotThresh)
}

// newPlanarStateIn is newPlanarState rebuilding into a recycled state: the
// five tracking maps are emptied with clear(), which keeps their buckets —
// map churn is proportional to the pages a run actually touched, so reuse
// costs O(touched), never O(capacity).
func newPlanarStateIn(re *planarState, dramBytes, xpBytes, pageBytes int64, hotThresh int) *planarState {
	n := dramBytes / pageBytes
	if n < 1 {
		n = 1
	}
	ratio := xpBytes / dramBytes
	if ratio < 1 {
		ratio = 1
	}
	if re == nil {
		re = &planarState{
			slotOwner:      make(map[int64]int64),
			heat:           make(map[int64]int),
			migratingUntil: make(map[int64]sim.Time),
			swapPages:      make(map[int64][2]int64),
			lastSwap:       make(map[int64]sim.Time),
		}
	} else {
		clear(re.slotOwner)
		clear(re.heat)
		clear(re.migratingUntil)
		clear(re.swapPages)
		clear(re.lastSwap)
	}
	*re = planarState{
		nGroups:        n,
		ratio:          ratio,
		pageBytes:      pageBytes,
		hotThresh:      hotThresh,
		slotOwner:      re.slotOwner,
		heat:           re.heat,
		migratingUntil: re.migratingUntil,
		swapPages:      re.swapPages,
		lastSwap:       re.lastSwap,
		cooldown:       25 * sim.Microsecond,
	}
	return re
}

// group returns the group of a local logical page.
func (p *planarState) group(page int64) int64 {
	return page % p.nGroups
}

// owner returns the logical kernel page resident in group g's DRAM slot, or
// -1 while the slot still holds its initial non-kernel data.
func (p *planarState) owner(g int64) int64 {
	if o, ok := p.slotOwner[g]; ok {
		return o
	}
	return -1
}

// inDRAM reports whether a logical page is the DRAM-resident member of its
// group.
func (p *planarState) inDRAM(page int64) bool {
	return p.owner(p.group(page)) == page
}

// accessPlanar serves one request in planar mode on controller mc.
func (c *Controller) accessPlanar(mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time {
	p := b.planar
	page := int64(local) / c.pageBytes
	g := p.group(page)

	// Conflict detection: only requests to the two pages participating in
	// an in-flight swap wait for it (Section IV-B); other pages — even in
	// the same group — proceed.
	start := at
	if until, ok := p.migratingUntil[g]; ok && until > start {
		if sp := p.swapPages[g]; sp[0] == page || sp[1] == page {
			start = until
			c.col.AddExtraH(c.hConflict, float64(until-at))
		}
	}

	var done sim.Time
	if p.inDRAM(page) {
		done = c.dramAccess(mc, b, start, c.dramSlotAddr(p, g, local), write, stats.RegularRequest)
		c.noteDRAMLat(int64(done - at))
	} else {
		done = c.xpAccess(mc, b, start, local, write, stats.RegularRequest)
		c.noteXPLat(int64(done - at))
		// Heat tracking drives hot-page detection; the per-group cooldown
		// prevents two hot pages from ping-ponging the single DRAM slot.
		p.heat[page]++
		last, swappedBefore := p.lastSwap[g]
		if p.heat[page] >= p.hotThresh && done >= p.swapBusyUntil &&
			(!swappedBefore || done >= last+p.cooldown) {
			p.heat[page] = 0
			c.swapPlanar(mc, b, done, g, page)
		}
	}
	return done
}

// dramSlotAddr maps group g's DRAM slot to a device address; the line
// offset within the page is preserved.
func (c *Controller) dramSlotAddr(p *planarState, g int64, local uint64) uint64 {
	off := int64(local) % c.pageBytes
	return uint64(g*c.pageBytes + off)
}

// swapPlanar migrates hot page `page` into its group's DRAM slot, evicting
// the current owner back to XPoint. The channel cost depends on the
// platform's migration machinery:
//
//   - MigrCopy: the memory controller copies everything through its buffer:
//     read DRAM -> MC, write MC -> XPoint, read XPoint -> MC, write MC ->
//     DRAM; four page transfers occupying the data route (Figure 7a).
//   - MigrAutoRW: the XPoint controller snarfs the DRAM read off the
//     channel and performs the XPoint write internally, eliminating the
//     MC -> XPoint transfer (Figure 9a); three transfers remain.
//   - MigrWOM / MigrBW: the memory controller issues a SWAP-CMD (command
//     bytes on the data route) and presets the DRAM bank; the XPoint
//     controller's DDR sequence generator moves both directions over the
//     memory route (Figures 10a, 11). WOM coding shares the request light
//     (3/2 request serialization while active); BW avoids the penalty.
func (c *Controller) swapPlanar(mc int, b *bank, at sim.Time, g, page int64) {
	p := b.planar
	evict := p.owner(g)
	if evict < 0 {
		// The slot's initial cold data evicts into the hot page's old
		// XPoint slot; model its XPoint address by the group index.
		evict = g
	}
	pageB := int(c.pageBytes)
	dramAddr := uint64(g * c.pageBytes)

	var done sim.Time
	switch c.kind {
	case MigrCopy:
		// Read the DRAM page to the controller buffer.
		rd := b.dram.AccessScheduled(at, dramAddr, false)
		t := c.link.request(mc, devDRAM, false, rd, pageB, stats.DataCopy)
		// Write it into XPoint (evicted page's slot).
		t = c.link.request(mc, devXPoint, true, t, pageB, stats.DataCopy)
		wDone := b.xp.MigrWrite(t, uint64(evict*c.pageBytes))
		// Read the hot page from XPoint.
		xr := b.xp.MigrRead(wDone, uint64(page*c.pageBytes))
		t = c.link.request(mc, devXPoint, false, xr, pageB, stats.DataCopy)
		// Write it into the DRAM slot.
		t = c.link.request(mc, devDRAM, true, t, pageB, stats.DataCopy)
		done = b.dram.AccessScheduled(t, dramAddr, true)
		c.DRAMReads++
		c.DRAMWrites++
		c.XPointReads++
		c.XPointWrites++

	case MigrAutoRW:
		// DRAM -> XPoint: MC reads DRAM over the data route; the XPoint
		// controller snarfs the same light (Figure 9a) and writes the page
		// internally — no MC -> XPoint transfer.
		rd := b.dram.AccessScheduled(at, dramAddr, false)
		t := c.link.request(mc, devDRAM, false, rd, pageB, stats.DataCopy)
		b.xp.Snarf(uint64(pageB))
		c.col.SnarfedBytes += uint64(pageB)
		wDone := b.xp.SwapWrite(t, uint64(evict*c.pageBytes))
		// XPoint -> DRAM still goes through the controller (DRAM cannot
		// snarf): read XPoint -> MC, write MC -> DRAM.
		xr := b.xp.MigrRead(wDone, uint64(page*c.pageBytes))
		t = c.link.request(mc, devXPoint, false, xr, pageB, stats.DataCopy)
		t = c.link.request(mc, devDRAM, true, t, pageB, stats.DataCopy)
		done = b.dram.AccessScheduled(t, dramAddr, true)
		c.DRAMReads++
		c.DRAMWrites++
		c.XPointReads++
		c.XPointWrites++

	case MigrWOM, MigrBW:
		// SWAP-CMD carries the DRAM/XPoint addresses and size on the data
		// route; the controller presets the bank to the activated state.
		// The DDR-T handshake checker asserts the Figure 11 protocol is
		// followed exactly (a hardware bus checker's role).
		rowOpen := b.dram.RowOpen(dramAddr)
		c.ddrtMsgs = ddrt.AppendSwapSequence(c.ddrtMsgs[:0], int(c.pageBytes/c.lineBytes), rowOpen)
		var hs ddrt.SwapHandshake
		for _, m := range c.ddrtMsgs {
			if err := hs.Step(m); err != nil {
				panic(fmt.Sprintf("hmem: swap protocol violation: %v", err))
			}
		}
		if !hs.Done() {
			panic("hmem: swap handshake incomplete")
		}
		cmdEnd := c.link.request(mc, devXPoint, true, at, cmdBytes, stats.DataCopy)
		bankReady := b.dram.Preset(cmdEnd, dramAddr)
		wom := c.kind == MigrWOM
		// DDR sequence generator reads the DRAM page and streams it to
		// XPoint over the memory route.
		t := c.link.memRoute(mc, bankReady, pageB, wom)
		xw := b.xp.SwapWrite(t, uint64(evict*c.pageBytes))
		// Then reads the hot page from XPoint and writes it to DRAM, still
		// on the memory route.
		xr := b.xp.ReverseRead(xw, uint64(page*c.pageBytes))
		t = c.link.memRoute(mc, xr, pageB, wom)
		done = b.dram.AccessScheduled(t, dramAddr, true)
		c.DRAMReads++
		c.DRAMWrites++
		c.XPointReads++
		c.XPointWrites++

	default:
		return // no migration machinery
	}

	// Record the swap window: only the two participating pages conflict.
	p.migratingUntil[g] = done
	p.swapPages[g] = [2]int64{page, evict}
	p.lastSwap[g] = done
	p.swapBusyUntil = done
	p.slotOwner[g] = page
	p.Swaps++
	c.col.Migrations++
	c.col.MigratedBytes += 2 * uint64(c.pageBytes)
}
