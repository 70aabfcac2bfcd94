package hmem

import (
	"slices"

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
	hotThresh int

	// groups[g] is group g's migration state and heat[page] counts the
	// accesses to a non-resident page since its last swap. Both are
	// indexed directly and grow to the highest page the cell touches: heat
	// to page+1 entries and groups to min(page+1, nGroups), so one length
	// check covers both. Past their lengths both hold zeros, which read as
	// a cold page and a group that never swapped: fresh memory is zeroed,
	// and a rebuild clears both up to their lengths. Clearing every touched
	// group, not only those a swap set, also brings the array back into
	// cache before the cell reads it. A count never wraps, since a cell
	// makes at most two accesses per memory instruction, 2^29 in all.
	groups []planarGroup
	heat   []uint32
	// cooldown is the per-group gap between swaps, so two hot pages
	// sharing a group do not ping-pong the DRAM slot.
	cooldown sim.Time
	// swapBusyUntil serializes swaps per controller: a new SWAP-CMD is only
	// issued after the previous swap's completion handshake (Figure 11
	// steps 5-6), which bounds migration backlog exactly as the hardware
	// protocol does.
	swapBusyUntil sim.Time

	Swaps uint64
}

// planarGroup is one group's DRAM slot and its last swap. The zero value
// is a group that never swapped, whose slot holds its initial cold data.
type planarGroup struct {
	// resident is 1 + the logical kernel page in the DRAM slot, or 0 while
	// the slot holds its initial data.
	resident int64
	// evicted is the page the last swap moved out of the slot. It and the
	// resident page took part in that swap, and only they wait for it to
	// complete (the conflict detection of Section IV-B); other pages of
	// the group proceed.
	evicted int64
	// until is when the last swap completed: its conflict window ends and
	// the group's cooldown starts.
	until sim.Time
}

// owner returns the logical kernel page resident in the group's DRAM slot,
// or -1 while the slot still holds its initial non-kernel data.
func (gr *planarGroup) owner() int64 { return gr.resident - 1 }

// newPlanarStateIn builds the planar state of one controller into re, or
// into a new state when re is nil. A recycled state keeps its arrays and
// clears only the entries the previous cell touched.
func newPlanarStateIn(re *planarState, dramBytes, pageBytes int64, hotThresh int) *planarState {
	n := dramBytes / pageBytes
	if n < 1 {
		n = 1
	}
	if re == nil {
		re = &planarState{}
	}
	clear(re.groups)
	clear(re.heat)
	*re = planarState{
		nGroups:   n,
		hotThresh: hotThresh,
		groups:    re.groups[:0],
		heat:      re.heat[:0],
		cooldown:  25 * sim.Microsecond,
	}
	return re
}

// group returns the group of a local logical page.
func (p *planarState) group(page int64) int64 {
	return page % p.nGroups
}

// grow lengthens heat to cover page and groups to cover its group. It is
// called only for a page past heat's end, and groups then holds
// min(len(heat), nGroups) entries, so neither shrinks.
func (p *planarState) grow(page int64) {
	n, ng := int(page+1), int(min(page+1, p.nGroups))
	p.heat = slices.Grow(p.heat, n-len(p.heat))[:n]
	p.groups = slices.Grow(p.groups, ng-len(p.groups))[:ng]
}

// accessPlanar serves one request in planar mode on controller mc.
func (c *Controller) accessPlanar(mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time {
	p := b.planar
	page := int64(local) / c.pageBytes
	if page >= int64(len(p.heat)) {
		p.grow(page)
	}
	g := p.group(page)
	gr := &p.groups[g]

	// Conflict detection: only requests to the two pages participating in
	// an in-flight swap wait for it (Section IV-B); other pages — even in
	// the same group — proceed.
	start := at
	if gr.until > start && (gr.owner() == page || gr.evicted == page) {
		start = gr.until
		c.col.AddExtraH(c.hConflict, float64(gr.until-at))
	}

	var done sim.Time
	if gr.owner() == page {
		done = c.dramAccess(mc, b, start, c.dramSlotAddr(p, g, local), write, stats.RegularRequest)
		c.noteDRAMLat(int64(done - at))
	} else {
		done = c.xpAccess(mc, b, start, local, write, stats.RegularRequest)
		c.noteXPLat(int64(done - at))
		// Heat tracking drives hot-page detection; the per-group cooldown
		// prevents two hot pages from ping-ponging the single DRAM slot.
		p.heat[page]++
		if int(p.heat[page]) >= p.hotThresh && done >= p.swapBusyUntil &&
			(gr.resident == 0 || done >= gr.until+p.cooldown) {
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
	gr := &p.groups[g]
	evict := gr.owner()
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
		t := c.request(mc, devDRAM, false, rd, pageB, stats.DataCopy)
		// Write it into XPoint (evicted page's slot).
		t = c.request(mc, devXPoint, true, t, pageB, stats.DataCopy)
		wDone := b.xp.MigrWrite(t, uint64(evict*c.pageBytes))
		// Read the hot page from XPoint.
		xr := b.xp.MigrRead(wDone, uint64(page*c.pageBytes))
		t = c.request(mc, devXPoint, false, xr, pageB, stats.DataCopy)
		// Write it into the DRAM slot.
		t = c.request(mc, devDRAM, true, t, pageB, stats.DataCopy)
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
		t := c.request(mc, devDRAM, false, rd, pageB, stats.DataCopy)
		b.xp.Snarf(uint64(pageB))
		c.col.SnarfedBytes += uint64(pageB)
		wDone := b.xp.SwapWrite(t, uint64(evict*c.pageBytes))
		// XPoint -> DRAM still goes through the controller (DRAM cannot
		// snarf): read XPoint -> MC, write MC -> DRAM.
		xr := b.xp.MigrRead(wDone, uint64(page*c.pageBytes))
		t = c.request(mc, devXPoint, false, xr, pageB, stats.DataCopy)
		t = c.request(mc, devDRAM, true, t, pageB, stats.DataCopy)
		done = b.dram.AccessScheduled(t, dramAddr, true)
		c.DRAMReads++
		c.DRAMWrites++
		c.XPointReads++
		c.XPointWrites++

	case MigrWOM, MigrBW:
		// SWAP-CMD carries the DRAM/XPoint addresses and size on the data
		// route; the controller presets the bank to the activated state.
		cmdEnd := c.request(mc, devXPoint, true, at, cmdBytes, stats.DataCopy)
		bankReady := b.dram.Preset(cmdEnd, dramAddr)
		// DDR sequence generator reads the DRAM page and streams it to
		// XPoint over the memory route.
		t := c.memRoute(mc, bankReady, pageB)
		xw := b.xp.SwapWrite(t, uint64(evict*c.pageBytes))
		// Then reads the hot page from XPoint and writes it to DRAM, still
		// on the memory route.
		xr := b.xp.ReverseRead(xw, uint64(page*c.pageBytes))
		t = c.memRoute(mc, xr, pageB)
		done = b.dram.AccessScheduled(t, dramAddr, true)
		c.DRAMReads++
		c.DRAMWrites++
		c.XPointReads++
		c.XPointWrites++

	default:
		return // no migration machinery
	}

	// Record the swap window: only the two participating pages conflict.
	*gr = planarGroup{resident: page + 1, evicted: evict, until: done}
	p.swapBusyUntil = done
	p.Swaps++
	c.col.Migrations++
	c.col.MigratedBytes += 2 * uint64(c.pageBytes)
}
