package sim

import "math"

// GapResource is a serially-occupied resource that, unlike Resource, can
// backfill idle gaps. Event-driven components sometimes book a resource at
// a *future* instant (a read response scheduled for when the device will be
// ready); with a plain frontier, every request arriving in between would
// queue behind that future booking even though the resource is idle. A real
// channel scheduler fills the gap — GapResource models that by remembering
// a bounded table of recent idle windows and first-fitting new reservations
// into them.
//
// Tables come only from Pools.GapResource, and the table is split by the
// clock that hands it: the run's engine. Request times move forward with
// the engine, so a gap that ended before the clock's Now() cannot fit any
// reservation made at or after that instant: such dead gaps sit in a
// (size, key) min-heap that only eviction reads, and first-fit scans the
// short list of live gaps. Each gap carries a key giving its place in the
// table order (the first-fit tie-break and the eviction tie-break): appends
// take the next key, and an eviction replacement inherits its victim's key
// and so its place. A reservation below the clock still searches the dead
// heap, so grants never depend on callers respecting the clock.
type GapResource struct {
	freeAt Time
	busy   Time

	// clock is the engine of the Pools that handed the table out; gaps
	// ending before its Now() retire to dead.
	clock *Engine

	// The remembered idle windows, at most maxGaps in total. live holds,
	// in key order, every gap not yet retired; dead is a min-heap ordered
	// by (size, key) of gaps that ended before the clock when retired.
	live    []gap
	dead    []gap
	nextKey uint64

	// maxGapEnd is an upper bound on the latest gap end (it may go stale
	// high when that gap is consumed, never low). A reservation can only
	// fit a gap whose end reaches at+dur, so Reserve skips the first-fit
	// scan entirely when maxGapEnd rules every gap out — the common case
	// once the request stream has moved past the remembered idle windows.
	maxGapEnd Time

	// minGapSize is a lower bound on the smallest remembered gap while the
	// table is full (removals only raise the true minimum, so the bound
	// stays valid; insertions tighten it). addGap drops a new window
	// smaller than every remembered one without the eviction scan, which
	// such a window could never win.
	minGapSize Time

	// maxGapSize is an upper bound on the largest remembered gap (stale
	// high after that gap is consumed, never low). A reservation longer
	// than every gap cannot backfill, so Reserve skips the scan — the
	// common case on backlogged channels whose surviving gaps are slivers.
	maxGapSize Time

	// liveMinEnd is a lower bound on the earliest live gap end (stale low
	// after that gap leaves live, never high): until the clock passes it
	// no live gap can be dead, so retire skips its scan.
	liveMinEnd Time

	// deadMaxEnd is an upper bound on the latest dead gap end: first-fit
	// searches the dead heap only for a reservation ending by then.
	deadMaxEnd Time
}

// gap is one remembered idle window [start, end) and its table-order key.
type gap struct {
	start, end Time
	key        uint64
}

func (g *gap) size() Time { return g.end - g.start }

// maxGaps bounds the remembered idle windows; once the table is full the
// smallest window is evicted. The bound is part of the model, not just a
// capacity: which windows survive eviction decides which later requests
// can backfill, so changing it changes grants and the golden reports.
const maxGaps = 256

// FreeAt returns the frontier: the earliest time a reservation is
// guaranteed to fit without gap luck.
func (r *GapResource) FreeAt() Time { return r.freeAt }

// Busy returns accumulated occupancy.
func (r *GapResource) Busy() Time { return r.busy }

// Reserve books dur starting no earlier than at, preferring the earliest
// idle gap that fits, else appending at the frontier.
func (r *GapResource) Reserve(at, dur Time) (start, end Time) {
	atDur := at + dur
	if atDur > r.maxGapEnd || dur > r.maxGapSize {
		// No remembered gap can contain [at, at+dur): append at the
		// frontier without scanning.
		return r.reserveFrontier(at, dur)
	}

	// First-fit into the earliest suitable gap. A gap fits iff it is long
	// enough (size >= dur) and ends late enough (end >= at+dur); the
	// adjusted start is then max(at, start). Ties on the adjusted start
	// resolve to the lowest key. live is in key order, so its scan can
	// stop at the first gap already open at `at`: its adjusted start `at`
	// is unbeatable there.
	r.retire()
	best, inDead := -1, false
	var bestStart Time
	var bestKey uint64
	for i := range r.live {
		g := &r.live[i]
		if g.end < atDur || g.size() < dur {
			continue
		}
		s := at
		if g.start > s {
			s = g.start
		}
		if best == -1 || s < bestStart {
			best, bestStart, bestKey = i, s, g.key
		}
		if s == at {
			break
		}
	}
	if atDur <= r.deadMaxEnd {
		// A reservation behind the clock may fit a dead gap too.
		for i := range r.dead {
			g := &r.dead[i]
			if g.end < atDur || g.size() < dur {
				continue
			}
			s := at
			if g.start > s {
				s = g.start
			}
			if best == -1 || s < bestStart || s == bestStart && g.key < bestKey {
				best, inDead, bestStart, bestKey = i, true, s, g.key
			}
		}
	}
	if best < 0 {
		return r.reserveFrontier(at, dur)
	}

	var g gap
	if inDead {
		g = r.removeDead(best)
	} else {
		g = r.live[best]
		r.live = append(r.live[:best], r.live[best+1:]...)
	}
	s := bestStart
	e := s + dur
	if g.start < s {
		r.addGap(g.start, s)
	}
	if e < g.end {
		r.addGap(e, g.end)
	}
	r.busy += dur
	return s, e
}

// reserveFrontier appends an occupancy at the frontier, recording the idle
// window it skips over.
func (r *GapResource) reserveFrontier(at, dur Time) (start, end Time) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	if start > r.freeAt {
		r.addGap(r.freeAt, start)
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// ReserveAt books exactly [at, at+dur) regardless of other occupancy (an
// externally arbitrated window, e.g. a migration operation granted by the
// conflict-detection logic). It never delays and never blocks earlier idle
// time; overlap with queued occupancy is the arbiter's responsibility.
func (r *GapResource) ReserveAt(at, dur Time) (start, end Time) {
	end = at + dur
	if end > r.freeAt {
		if at > r.freeAt {
			r.addGap(r.freeAt, at)
		}
		r.freeAt = end
	}
	r.busy += dur
	return at, end
}

// addGap records an idle window, evicting the smallest when full.
func (r *GapResource) addGap(start, end Time) {
	if end <= start {
		return
	}
	if end > r.maxGapEnd {
		r.maxGapEnd = end
	}
	newSize := end - start
	if newSize > r.maxGapSize {
		r.maxGapSize = newSize
	}
	if n := len(r.live) + len(r.dead); n < maxGaps {
		if r.live == nil {
			// Size the table once: it reaches maxGaps quickly on any busy
			// resource, and incremental regrowth shows up in cold-cell
			// allocation counts.
			r.live = make([]gap, 0, maxGaps)
		}
		if n == 0 || newSize < r.minGapSize {
			r.minGapSize = newSize
		}
		r.insert(gap{start: start, end: end, key: r.nextKey})
		r.nextKey++
		return
	}
	if newSize <= r.minGapSize {
		// Smaller than (or tied with) every remembered gap: the strict
		// eviction comparison in evict could never pick it.
		return
	}
	r.evict(gap{start: start, end: end})
}

// evict records g in a full table. The victim is the smallest gap, the
// lowest key among equals, and g replaces it only if strictly larger; g
// takes the victim's key. Retiring first keeps the live scan short; the
// dead minimum is the heap top. rest tracks the smallest gap left once the
// victim is gone, so the minimum bound stays exact afterwards.
func (r *GapResource) evict(g gap) {
	newSize := g.size()
	r.retire()
	victim := -1 // index into live; -1 when the dead top is the victim
	vSize, rest := Time(math.MaxInt64), Time(math.MaxInt64)
	for i := range r.live {
		if s := r.live[i].size(); s < vSize {
			victim, vSize, rest = i, s, vSize
		} else if s < rest {
			rest = s
		}
	}
	if len(r.dead) > 0 {
		d := &r.dead[0]
		if s := d.size(); s < vSize || s == vSize && d.key < r.live[victim].key {
			victim, vSize, rest = -1, s, vSize
		}
	}
	if newSize <= vSize {
		r.minGapSize = vSize
		return
	}
	if victim < 0 {
		g.key = r.removeDead(0).key
		r.insert(g)
	} else {
		// Same key, same place: key order holds.
		g.key = r.live[victim].key
		r.live[victim] = g
		if g.end < r.liveMinEnd {
			r.liveMinEnd = g.end
		}
	}
	if newSize < rest {
		rest = newSize
	}
	if len(r.dead) > 0 && r.dead[0].size() < rest {
		rest = r.dead[0].size()
	}
	r.minGapSize = rest
}

// retire moves the live gaps that ended before the clock's Now() to the
// dead heap: none can fit a reservation made at or after it. It scans only
// once the clock has passed liveMinEnd.
func (r *GapResource) retire() {
	if r.clock.now <= r.liveMinEnd {
		return
	}
	now := r.clock.now
	minEnd := Time(math.MaxInt64)
	n := 0
	for i := range r.live {
		g := &r.live[i]
		if g.end < now {
			r.pushDead(*g)
			continue
		}
		if g.end < minEnd {
			minEnd = g.end
		}
		r.live[n] = *g
		n++
	}
	r.live = r.live[:n]
	r.liveMinEnd = minEnd
}

// insert files g into live at its key-order position (appends carry the
// largest key and land last). A gap that already ended retires at the next
// retire, like any other.
func (r *GapResource) insert(g gap) {
	if len(r.live) == 0 || g.end < r.liveMinEnd {
		r.liveMinEnd = g.end
	}
	i := len(r.live)
	r.live = append(r.live, g)
	for i > 0 && r.live[i-1].key > g.key {
		r.live[i] = r.live[i-1]
		i--
	}
	r.live[i] = g
}

// deadLess orders the dead heap by (size, key): its top is the eviction
// candidate among dead gaps.
func deadLess(a, b *gap) bool {
	if sa, sb := a.size(), b.size(); sa != sb {
		return sa < sb
	}
	return a.key < b.key
}

func (r *GapResource) pushDead(g gap) {
	if g.end > r.deadMaxEnd {
		r.deadMaxEnd = g.end
	}
	if r.dead == nil {
		// Only a table whose clock passes its gaps pays for the heap,
		// sized once like live.
		r.dead = make([]gap, 0, maxGaps)
	}
	r.dead = append(r.dead, g)
	r.deadUp(len(r.dead) - 1)
}

// removeDead deletes heap element i and returns it.
func (r *GapResource) removeDead(i int) gap {
	h := r.dead
	out := h[i]
	n := len(h) - 1
	h[i] = h[n]
	r.dead = h[:n]
	if i < n {
		r.deadDown(r.deadUp(i))
	}
	return out
}

// deadUp sifts dead[i] toward the root and returns where it settled.
func (r *GapResource) deadUp(i int) int {
	h := r.dead
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !deadLess(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	return i
}

// deadDown sifts dead[i] toward the leaves.
func (r *GapResource) deadDown(i int) {
	h := r.dead
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && deadLess(&h[c+1], &h[c]) {
			c++
		}
		if !deadLess(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// Reset clears all state.
func (r *GapResource) Reset() {
	r.freeAt = 0
	r.busy = 0
	r.live = r.live[:0]
	r.dead = r.dead[:0]
	r.nextKey = 0
	r.maxGapEnd = 0
	r.maxGapSize = 0
	r.minGapSize = 0
	r.liveMinEnd = 0
	r.deadMaxEnd = 0
}

// Utilization returns busy/elapsed clamped to [0,1].
func (r *GapResource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
