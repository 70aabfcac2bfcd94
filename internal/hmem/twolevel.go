package hmem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// twoLevelState implements the two-level memory mode (Figure 7b): DRAM is a
// direct-mapped inclusive cache of the XPoint space. The tag, valid and
// dirty bits live in the ECC region of each DRAM cache line (Section III-B),
// so a hit costs exactly one DRAM access — the tag check and the data fetch
// are the same read.
type twoLevelState struct {
	nSets     int64
	lineBytes int64

	// tag[s] is the XPoint line index resident in set s; -1 when invalid.
	tag   []int64
	dirty []bool

	// touched journals the sets whose tag left the invalid state this run,
	// so a pooled rebuild restores O(touched) entries instead of refilling
	// the whole tag array; past an eighth of the sets, full switches the
	// rebuild to one wholesale refill. Invariant: every valid tag entry in
	// the backing array is journaled or full is set, so after the rebuild's
	// scrub the backing arrays are entirely invalid/false.
	touched []int64
	full    bool

	Hits      uint64
	MissClean uint64
	MissDirty uint64
}

// newTwoLevelStateIn builds the two-level state of one controller into
// re, or into a new state when re is nil. A recycled state scrubs its
// retained tag/dirty arrays through the touched journal.
func newTwoLevelStateIn(re *twoLevelState, dramBytes, lineBytes int64) *twoLevelState {
	n := dramBytes / lineBytes
	if re == nil {
		re = &twoLevelState{}
	}
	tag, dirty := re.tag, re.dirty
	if re.full {
		for i := range tag {
			tag[i] = -1
		}
		clear(dirty)
	} else {
		for _, s := range re.touched {
			tag[s] = -1
			dirty[s] = false
		}
	}
	if int64(cap(tag)) < n {
		tag = make([]int64, n)
		for i := range tag {
			tag[i] = -1
		}
		dirty = make([]bool, n)
	} else {
		tag = tag[:n]
		dirty = dirty[:n]
	}
	*re = twoLevelState{
		nSets:     n,
		lineBytes: lineBytes,
		tag:       tag,
		dirty:     dirty,
		touched:   re.touched[:0],
	}
	return re
}

// install records a fill into set s, journaling the set's first departure
// from the invalid state for the pooled rebuild's scrub.
func (t *twoLevelState) install(set, line int64, dirty bool) {
	if t.tag[set] == -1 && !t.full {
		if int64(len(t.touched)) < t.nSets/8 {
			t.touched = append(t.touched, set)
		} else {
			t.full = true
			t.touched = t.touched[:0]
		}
	}
	t.tag[set] = line
	t.dirty[set] = dirty
}

// lookup maps a local address to (set, xpoint line, hit).
func (t *twoLevelState) lookup(local uint64) (set int64, line int64, hit bool) {
	line = int64(local) / t.lineBytes
	set = line % t.nSets
	return set, line, t.tag[set] == line
}

// accessTwoLevel serves one request in two-level mode on controller mc.
//
// Hit: one DRAM access returns data + metadata in a single cache line (the
// tag-in-ECC design), one response transfer.
//
// Miss: the DRAM read that performed the tag check has already fetched the
// victim line; if dirty it must go to XPoint, then the missing line is read
// from XPoint, returned to the GPU, and installed in DRAM. Who moves those
// bytes depends on the migration machinery:
//
//   - MigrCopy: the memory controller does everything on the data route —
//     victim transfer to XPoint and fill write to DRAM both occupy it.
//   - MigrAutoRW: the XPoint controller snarfed the tag-check read off the
//     channel (Figure 9b), so a dirty victim is written to XPoint
//     internally — the victim transfer disappears from the channel.
//   - MigrWOM/MigrBW: additionally the fill (XPoint -> DRAM) rides the
//     memory route via reverse-write (Figures 10b, 12) while the demand
//     data still flows to the controller on the data route. Migration then
//     occupies no data-route bandwidth at all — Figure 18's "fully
//     eliminated" bar.
func (c *Controller) accessTwoLevel(mc int, b *bank, at sim.Time, local uint64, write bool) sim.Time {
	t := b.twolvl
	set, line, hit := t.lookup(local)
	lineB := int(c.lineBytes)
	dramAddr := uint64(set) * uint64(c.lineBytes)

	if hit {
		t.Hits++
		done := c.dramAccess(mc, b, at, dramAddr, write, stats.RegularRequest)
		if write {
			t.dirty[set] = true
		}
		return done
	}

	// Miss path. The tag check itself is a DRAM read: command + line
	// response (metadata rides the ECC bits of the same line).
	cmd := c.request(mc, devDRAM, true, at, cmdBytes, stats.RegularRequest)
	tagRead := b.dram.Access(cmd, dramAddr, false)
	tagResp := c.request(mc, devDRAM, false, tagRead, lineB, stats.RegularRequest)
	c.DRAMReads++

	victim := t.tag[set]
	victimDirty := victim >= 0 && t.dirty[set]

	// Evict the dirty victim.
	evictDone := tagResp
	if victimDirty {
		t.MissDirty++
		switch c.kind {
		case MigrCopy:
			// Controller pushes the victim over the data route.
			tr := c.request(mc, devXPoint, true, tagResp, lineB, stats.DataCopy)
			evictDone = b.xp.MigrWrite(tr, uint64(victim)*uint64(c.lineBytes))
			c.XPointWrites++
		default:
			// Auto-read/write: the XPoint controller snarfed the tag-check
			// read and detected the miss by comparing tags itself; it
			// absorbs the eviction with no extra channel transfer.
			b.xp.Snarf(uint64(lineB))
			c.col.SnarfedBytes += uint64(lineB)
			evictDone = b.xp.SwapWrite(tagResp, uint64(victim)*uint64(c.lineBytes))
			c.XPointWrites++
		}
	} else {
		t.MissClean++
	}

	// Fetch the missing line from XPoint and serve the GPU.
	xr := b.xp.Read(tagResp, uint64(line)*uint64(c.lineBytes))
	if xr < evictDone && c.kind == MigrCopy {
		// The single controller buffer serializes eviction before fill in
		// the copy baseline.
		xr = evictDone
	}
	demandDone := c.request(mc, devXPoint, false, xr, lineB, stats.RegularRequest)
	c.XPointReads++

	// Install the line in DRAM.
	var fillDone sim.Time
	switch c.kind {
	case MigrWOM, MigrBW:
		// Reverse-write: the XPoint controller writes DRAM over the memory
		// route while the controller snarfs the demand data (handled above
		// as the demand transfer).
		tr := c.memRoute(mc, xr, lineB)
		fillDone = b.dram.AccessScheduled(tr, dramAddr, true)
	default:
		// Controller writes the fill over the data route.
		tr := c.request(mc, devDRAM, true, demandDone, cmdBytes+lineB, stats.DataCopy)
		fillDone = b.dram.AccessScheduled(tr, dramAddr, true)
	}
	c.DRAMWrites++

	t.install(set, line, write)
	c.col.Migrations++
	c.col.MigratedBytes += uint64(lineB)
	if victimDirty {
		c.col.MigratedBytes += uint64(lineB)
	}

	// The request completes when the demand data reaches the controller;
	// the fill may continue in the background on dual-route platforms, but
	// in the copy baseline the controller is busy until the fill is done.
	if c.kind == MigrCopy && fillDone > demandDone {
		return fillDone
	}
	return demandDone
}
