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
// The remembered windows never overlap, so kept in start order they are
// also in end order: the windows the clock has passed are a prefix, and
// the first window that fits a reservation is the earliest fit.
//
// Tables come only from Pools.GapResource, and the table is split by the
// clock that hands it: the run's engine. Request times move forward with
// the engine, so a window that ended before the clock's Now() cannot fit
// any reservation made at or after that instant: such dead windows stay
// only as eviction candidates, and first fit walks the short live list.
// Each window carries a key giving its place in the table order, the
// tie-break of eviction and of a zero-length reservation at the shared
// edge of two adjacent windows: appends take the next key, and an eviction
// replacement inherits its victim's key. A reservation below the clock
// still searches the dead windows, so grants never depend on callers
// respecting the clock.
type GapResource struct {
	freeAt Time
	busy   Time

	// clock is the engine of the Pools that handed the table out; windows
	// ending before its Now() retire to dead.
	clock *Engine

	// The remembered idle windows, at most maxGaps in total, share one
	// backing array: dead is its prefix and live the rest. live holds every
	// window not yet retired, in start order. dead holds the retired ones,
	// unordered until eviction first needs their minimum and a (size, key)
	// min-heap from then on (heaped).
	live, dead []gap
	heaped     bool
	nextKey    uint64

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

	// deadMaxEnd is an upper bound on the latest dead gap end: first-fit
	// searches the dead windows only for a reservation ending by then.
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
// Most slots hold dead windows, which only eviction reads: at 20,000
// instructions per warp, tables held 11-16 live and 141-196 dead windows
// on average, so reservations backfill into about a dozen windows.
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

	// First fit: among the gaps long enough (size >= dur) and ending late
	// enough (end >= at+dur), the earliest adjusted start max(at, start)
	// wins, the lowest key on a tie. A later live gap starts at or after
	// the first fitting one's end, so that one wins, except that a
	// zero-length reservation at its end ties with a gap starting there.
	r.retire()
	best, inDead := -1, false
	var bestStart Time
	var bestKey uint64
	for i := range r.live {
		g := &r.live[i]
		if g.end < atDur || g.size() < dur {
			continue
		}
		best, bestStart, bestKey = i, max(at, g.start), g.key
		if at == g.end && i+1 < len(r.live) {
			if n := &r.live[i+1]; n.start == at && n.key < bestKey {
				best, bestKey = i+1, n.key
			}
		}
		break
	}
	if atDur <= r.deadMaxEnd {
		// A reservation behind the clock may fit a dead gap too.
		for i := range r.dead {
			g := &r.dead[i]
			if g.end < atDur || g.size() < dur {
				continue
			}
			s := max(at, g.start)
			if best == -1 || s < bestStart || s == bestStart && g.key < bestKey {
				best, inDead, bestStart, bestKey = i, true, s, g.key
			}
		}
	}
	if best < 0 {
		return r.reserveFrontier(at, dur)
	}

	s, e := bestStart, bestStart+dur
	r.busy += dur
	if inDead {
		g := r.removeDead(best)
		r.addGap(g.start, s)
		r.addGap(e, g.end)
		return s, e
	}
	// The remnants lie inside g, so they take its place in start order.
	// The first overwrites g's slot (the table has just shrunk by one, so
	// it cannot evict) and the second files in right after it.
	g := r.live[best]
	first, second := gap{start: g.start, end: s}, gap{start: e, end: g.end}
	if first.size() <= 0 {
		first, second = second, gap{}
	}
	if first.size() <= 0 {
		r.live = append(r.live[:best], r.live[best+1:]...)
		return s, e
	}
	// As addGap records it in the table without g:
	if len(r.live)+len(r.dead) == 1 || first.size() < r.minGapSize {
		r.minGapSize = first.size()
	}
	first.key = r.nextKey
	r.nextKey++
	r.live[best] = first
	r.addGap(second.start, second.end)
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
// takes the victim's key and its own place in start order. The dead
// minimum is the heap top. rest tracks the smallest gap left once the
// victim is gone, so the minimum bound stays exact afterwards.
func (r *GapResource) evict(g gap) {
	newSize := g.size()
	r.retire()
	victim := -1 // index into live; -1 when the dead top is the victim
	vSize, rest := Time(math.MaxInt64), Time(math.MaxInt64)
	var vKey uint64
	for i := range r.live {
		w := &r.live[i]
		if s := w.size(); s < vSize || s == vSize && w.key < vKey {
			victim, vSize, vKey, rest = i, s, w.key, vSize
		} else if s < rest {
			rest = s
		}
	}
	if len(r.dead) > 0 {
		if !r.heaped {
			// The first eviction to need the dead minimum heaps dead.
			for i := len(r.dead)/2 - 1; i >= 0; i-- {
				r.deadDown(i)
			}
			r.heaped = true
		}
		if d := &r.dead[0]; d.size() < vSize || d.size() == vSize && d.key < vKey {
			victim, vSize, rest = -1, d.size(), vSize
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
		g.key = r.live[victim].key
		r.place(victim, g)
	}
	if newSize < rest {
		rest = newSize
	}
	if len(r.dead) > 0 && r.dead[0].size() < rest {
		rest = r.dead[0].size()
	}
	r.minGapSize = rest
}

// retire moves the live gaps that ended before the clock's Now() to dead:
// none can fit a reservation made at or after it. In start order they are
// a prefix of live, and live begins where dead ends, so retiring moves
// that boundary.
func (r *GapResource) retire() {
	now := r.clock.now
	for len(r.live) > 0 && r.live[0].end < now {
		r.deadMaxEnd = max(r.deadMaxEnd, r.live[0].end)
		r.live = r.live[1:]
		r.dead = r.dead[:len(r.dead)+1]
		if r.heaped {
			r.deadUp(len(r.dead) - 1)
		}
	}
}

// insert files g into live at its start-order place: a frontier window
// appends, a remnant lands right after the window it came from. The table
// must have room.
func (r *GapResource) insert(g gap) {
	if r.live == nil {
		// Size the table once: it reaches maxGaps quickly on any busy
		// resource, and incremental regrowth shows up in cold-cell
		// allocation counts.
		r.live = make([]gap, 0, maxGaps)
		r.dead = r.live
	}
	r.live = append(r.live, g)
	r.place(len(r.live)-1, g)
}

// place overwrites live[i] with g and moves it to its start-order place.
func (r *GapResource) place(i int, g gap) {
	l := r.live
	for ; i+1 < len(l) && l[i+1].start < g.start; i++ {
		l[i] = l[i+1]
	}
	for ; i > 0 && l[i-1].start > g.start; i-- {
		l[i] = l[i-1]
	}
	l[i] = g
}

// removeDead deletes dead[i], keeping the heap if there is one, closes the
// hole by moving live down one slot and returns the window.
func (r *GapResource) removeDead(i int) gap {
	d := r.dead
	out, last := d[i], len(d)-1
	d[i] = d[last]
	r.dead = d[:last]
	if r.heaped && i < last {
		r.deadDown(r.deadUp(i))
	}
	live := r.live
	r.live = d[last : last+len(live)]
	copy(r.live, live)
	return out
}

// deadLess orders the dead heap by (size, key): its top is the eviction
// candidate among dead gaps.
func deadLess(a, b *gap) bool {
	if sa, sb := a.size(), b.size(); sa != sb {
		return sa < sb
	}
	return a.key < b.key
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
	r.dead = r.dead[:0]
	r.live = r.dead
	r.heaped = false
	r.nextKey = 0
	r.maxGapEnd = 0
	r.maxGapSize = 0
	r.minGapSize = 0
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
