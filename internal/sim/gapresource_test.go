package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// newTable returns a gap table from pools of its own whose engine never
// advances: its clock stays at zero, so every remembered gap stays live.
func newTable() *GapResource { return (&Pools{}).GapResource() }

func TestGapResourceFrontier(t *testing.T) {
	r := newTable()
	s, e := r.Reserve(0, 10)
	if s != 0 || e != 10 {
		t.Fatalf("first reservation [%d,%d)", s, e)
	}
	s, e = r.Reserve(5, 10)
	if s != 10 || e != 20 {
		t.Fatalf("queued reservation [%d,%d), want [10,20)", s, e)
	}
	if r.FreeAt() != 20 || r.Busy() != 20 {
		t.Fatalf("frontier %d busy %d", r.FreeAt(), r.Busy())
	}
}

func TestGapResourceBackfill(t *testing.T) {
	r := newTable()
	// A future booking leaves an idle gap behind it...
	s, _ := r.Reserve(1000, 50)
	if s != 1000 {
		t.Fatalf("future booking started at %d", s)
	}
	// ...which an earlier request must fill instead of queueing at 1050.
	s, e := r.Reserve(0, 100)
	if s != 0 || e != 100 {
		t.Fatalf("backfill got [%d,%d), want [0,100)", s, e)
	}
	// The remaining gap [100,1000) keeps absorbing fits.
	s, e = r.Reserve(200, 300)
	if s != 200 || e != 500 {
		t.Fatalf("second backfill [%d,%d), want [200,500)", s, e)
	}
	// An oversized request falls through to the frontier.
	s, _ = r.Reserve(0, 900)
	if s != 1050 {
		t.Fatalf("oversized request started at %d, want frontier 1050", s)
	}
}

func TestGapResourceEarliestGapWins(t *testing.T) {
	r := newTable()
	r.Reserve(100, 10) // gap [0,100)
	r.Reserve(300, 10) // gap [110,300)
	s, _ := r.Reserve(0, 50)
	if s != 0 {
		t.Fatalf("should fill the earliest suitable gap, started at %d", s)
	}
}

func TestGapResourceReserveAt(t *testing.T) {
	r := newTable()
	r.Reserve(0, 100)
	// Interior scheduled window: no frontier movement.
	s, e := r.ReserveAt(50, 10)
	if s != 50 || e != 60 || r.FreeAt() != 100 {
		t.Fatalf("interior ReserveAt [%d,%d) frontier %d", s, e, r.FreeAt())
	}
	// Future scheduled window extends the frontier and leaves a fillable gap.
	r.ReserveAt(500, 10)
	if r.FreeAt() != 510 {
		t.Fatalf("frontier %d, want 510", r.FreeAt())
	}
	s, _ = r.Reserve(100, 50)
	if s != 100 {
		t.Fatalf("gap before scheduled window not fillable: started %d", s)
	}
}

func TestGapResourceReset(t *testing.T) {
	r := newTable()
	r.Reserve(100, 10)
	r.Reset()
	if r.FreeAt() != 0 || r.Busy() != 0 {
		t.Fatal("Reset incomplete")
	}
	if s, _ := r.Reserve(0, 5); s != 0 {
		t.Fatal("state leaked through Reset")
	}
}

func TestGapResourceUtilization(t *testing.T) {
	r := newTable()
	r.Reserve(0, 50)
	if got := r.Utilization(100); got != 0.5 {
		t.Fatalf("utilization %v", got)
	}
	if r.Utilization(0) != 0 {
		t.Fatal("zero elapsed must yield 0")
	}
	if r.Utilization(10) != 1 {
		t.Fatal("must clamp to 1")
	}
}

// Property: Reserve windows never overlap each other, regardless of how
// they interleave with ReserveAt bookings.
func TestGapResourceNoOverlapProperty(t *testing.T) {
	type window struct{ s, e Time }
	f := func(ops []uint32) bool {
		r := newTable()
		var reserved []window
		at := Time(0)
		for _, op := range ops {
			dur := Time(op%500) + 1
			if op%3 == 0 {
				// Scheduled booking at a (possibly future) instant.
				r.ReserveAt(at+Time(op%10000), dur)
				continue
			}
			s, e := r.Reserve(at, dur)
			if s < at || e != s+dur {
				return false
			}
			reserved = append(reserved, window{s, e})
			at += Time(op % 97)
		}
		sort.Slice(reserved, func(i, j int) bool { return reserved[i].s < reserved[j].s })
		for i := 1; i < len(reserved); i++ {
			if reserved[i].s < reserved[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals the sum of requested durations.
func TestGapResourceBusyAccountingProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		r := newTable()
		var want Time
		for i, d := range durs {
			dur := Time(d%1000) + 1
			want += dur
			if i%2 == 0 {
				r.Reserve(Time(i*13), dur)
			} else {
				r.ReserveAt(Time(i*29), dur)
			}
		}
		return r.Busy() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: under gap eviction pressure (many future bookings), Reserve
// still never returns a start before the request time.
func TestGapResourceEvictionPressureProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		r := newTable()
		for i, s := range seeds {
			// Create far-flung scheduled windows to force gap eviction.
			r.ReserveAt(Time(s%1_000_000)+Time(i)*10_000, Time(s%50)+1)
		}
		at := Time(0)
		for i := 0; i < 100; i++ {
			s, e := r.Reserve(at, 100)
			if s < at || e != s+100 {
				return false
			}
			at = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refGapResource is the pre-optimization algorithm (one unordered slice,
// no early-outs, no scan break, no clock): the oracle the fast paths and
// the live/dead split must match window-for-window.
type refGapWindow struct{ start, end Time }

type refGapResource struct {
	freeAt Time
	busy   Time
	gaps   []refGapWindow
}

func (r *refGapResource) reserve(at, dur Time) (start, end Time) {
	best := -1
	var bestStart Time
	for i := range r.gaps {
		g := &r.gaps[i]
		s := at
		if g.start > s {
			s = g.start
		}
		if s+dur <= g.end {
			if best == -1 || s < bestStart {
				best = i
				bestStart = s
			}
		}
	}
	if best >= 0 {
		g := r.gaps[best]
		s := bestStart
		e := s + dur
		repl := r.gaps[:0]
		for i, w := range r.gaps {
			if i == best {
				continue
			}
			repl = append(repl, w)
		}
		r.gaps = repl
		if g.start < s {
			r.addGap(g.start, s)
		}
		if e < g.end {
			r.addGap(e, g.end)
		}
		r.busy += dur
		return s, e
	}
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

func (r *refGapResource) reserveAt(at, dur Time) (start, end Time) {
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

func (r *refGapResource) addGap(start, end Time) {
	if end <= start {
		return
	}
	if len(r.gaps) < maxGaps {
		r.gaps = append(r.gaps, refGapWindow{start, end})
		return
	}
	smallest, size := 0, r.gaps[0].end-r.gaps[0].start
	for i := 1; i < len(r.gaps); i++ {
		if s := r.gaps[i].end - r.gaps[i].start; s < size {
			smallest, size = i, s
		}
	}
	if end-start > size {
		r.gaps[smallest] = refGapWindow{start, end}
	}
}

// table returns the gap table in key order, which is the reference's
// slice order.
func (r *GapResource) table() []refGapWindow {
	all := append(append([]gap(nil), r.live...), r.dead...)
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]refGapWindow, len(all))
	for i, g := range all {
		out[i] = refGapWindow{g.start, g.end}
	}
	return out
}

func requireSameTable(t *testing.T, when string, r *GapResource, ref *refGapResource) {
	t.Helper()
	got := r.table()
	if len(got) != len(ref.gaps) {
		t.Fatalf("%s: gap table length %d != reference %d", when, len(got), len(ref.gaps))
	}
	for i := range ref.gaps {
		if got[i] != ref.gaps[i] {
			t.Fatalf("%s: gap %d: %+v != reference %+v", when, i, got[i], ref.gaps[i])
		}
	}
}

// shapeChecker checks the table's invariant after every operation: live is
// in strictly increasing start order, no two windows overlap across live
// and dead, and the table holds at most maxGaps windows. It re-sorts the
// dead windows' starts and ends only when dead changed since the last
// check.
type shapeChecker struct {
	dead         []gap  // dead at the last check
	starts, ends []Time // its windows' starts and ends, each sorted
}

func (c *shapeChecker) check(t *testing.T, when string, op int, r *GapResource) {
	t.Helper()
	if n := len(r.live) + len(r.dead); n > maxGaps {
		t.Fatalf("%s op %d: %d windows, more than maxGaps", when, op, n)
	}
	for i := 1; i < len(r.live); i++ {
		if a, b := r.live[i-1], r.live[i]; a.start >= b.start || a.end > b.start {
			t.Fatalf("%s op %d: live %d %+v and live %d %+v are out of order or overlap", when, op, i-1, a, i, b)
		}
	}
	if !slices.Equal(c.dead, r.dead) {
		c.dead = append(c.dead[:0], r.dead...)
		c.starts, c.ends = c.starts[:0], c.ends[:0]
		for _, g := range r.dead {
			c.starts, c.ends = append(c.starts, g.start), append(c.ends, g.end)
		}
		slices.Sort(c.starts)
		slices.Sort(c.ends)
		// Non-empty windows are pairwise disjoint exactly when, with their
		// starts and ends sorted apart, each end is at or before the next
		// start.
		for i := 1; i < len(c.starts); i++ {
			if c.ends[i-1] > c.starts[i] {
				t.Fatalf("%s op %d: dead windows overlap at %d", when, op, c.starts[i])
			}
		}
	}
	for _, l := range r.live {
		// Among the dead windows starting before l ends, only the latest
		// can reach into l: any earlier one ends before that one starts.
		if k, _ := slices.BinarySearch(c.starts, l.end); k > 0 && c.ends[k-1] > l.start {
			t.Fatalf("%s op %d: live %+v overlaps a dead window", when, op, l)
		}
	}
}

// TestGapResourceMatchesReference hammers the optimized GapResource, on a
// clock that stays at zero, and the reference with an identical random
// operation stream — bursty times, zero and large durations, future
// ReserveAt bookings — and requires identical grants, frontiers and busy
// accounting at every step, plus identical gap tables at the end. This
// pins the fast-path invariants: maxGapEnd is an upper bound, minGapSize a
// lower bound, and the scan break preserves the first-fit tie-break.
func TestGapResourceMatchesReference(t *testing.T) {
	rng := NewRng(7)
	r := newTable()
	ref := &refGapResource{}
	var shape shapeChecker
	var base Time
	for op := 0; op < 200000; op++ {
		// Drift a base time forward with occasional rewinds so both the
		// frontier-append and the gap-fill paths stay exercised.
		switch rng.Intn(10) {
		case 0:
			base += Time(rng.Intn(5000))
		case 1:
			base -= Time(rng.Intn(300))
			if base < 0 {
				base = 0
			}
		default:
			base += Time(rng.Intn(50))
		}
		at := base + Time(rng.Intn(200))
		dur := Time(rng.Intn(120))
		if rng.Intn(20) == 0 {
			dur += Time(rng.Intn(5000)) // occasional huge occupancy
		}
		var s1, e1, s2, e2 Time
		if rng.Intn(4) == 0 {
			future := at + Time(rng.Intn(3000))
			s1, e1 = r.ReserveAt(future, dur)
			s2, e2 = ref.reserveAt(future, dur)
		} else {
			s1, e1 = r.Reserve(at, dur)
			s2, e2 = ref.reserve(at, dur)
		}
		if s1 != s2 || e1 != e2 {
			t.Fatalf("op %d: grant (%d,%d) != reference (%d,%d)", op, s1, e1, s2, e2)
		}
		if r.FreeAt() != ref.freeAt || r.Busy() != ref.busy {
			t.Fatalf("op %d: frontier/busy (%d,%d) != reference (%d,%d)",
				op, r.FreeAt(), r.Busy(), ref.freeAt, ref.busy)
		}
		shape.check(t, "idle clock", op, r)
	}
	requireSameTable(t, "end", r, ref)
}

// startClock starts the pools' engine with one slot and fires it at time
// zero, so advance can move the clock.
func startClock(p *Pools) *Engine {
	e := p.Engine()
	e.Start(1)
	e.Next()
	return e
}

// advance moves a started one-slot clock to at, which must not be behind
// it: the slot reschedules itself at at and fires again.
func advance(e *Engine, at Time) {
	e.Reschedule(at)
	e.Next()
}

// TestGapResourceClockedMatchesReference drives a pooled, clocked
// GapResource against the clockless reference while the engine clock
// advances. Most reservations ask for at >= Now(), as the simulator's
// components do; a few ask below the clock and must still find the dead
// gaps that fit them. Zero durations and far future bookings keep the
// table full, so eviction picks victims from both the live list and the
// dead heap. Grants, frontier and busy time must match at every step and
// the table in key order at regular checkpoints.
func TestGapResourceClockedMatchesReference(t *testing.T) {
	rng := NewRng(11)
	pools := &Pools{}
	r := pools.GapResource()
	clock := startClock(pools)
	ref := &refGapResource{}
	var shape shapeChecker
	var now Time
	var below, deadFits, fullWithDead int
	for op := 0; op < 200000; op++ {
		if rng.Intn(10) == 0 {
			now += Time(rng.Intn(4000))
		} else {
			now += Time(rng.Intn(40))
		}
		advance(clock, now)
		at := now + Time(rng.Intn(200))
		if rng.Intn(25) == 0 {
			at = now - Time(rng.Intn(3000)) // behind the clock
			if at < 0 {
				at = 0
			}
			below++
		}
		dur := Time(rng.Intn(120))
		switch rng.Intn(10) {
		case 0:
			dur = 0
		case 1:
			dur += Time(rng.Intn(5000))
		}
		for _, g := range r.dead {
			if g.end >= at+dur && g.end-g.start >= dur {
				deadFits++
				break
			}
		}
		if len(r.live)+len(r.dead) == maxGaps && len(r.dead) > 0 {
			fullWithDead++
		}
		var s1, e1, s2, e2 Time
		if rng.Intn(3) == 0 {
			future := at + Time(rng.Intn(20000))
			s1, e1 = r.ReserveAt(future, dur)
			s2, e2 = ref.reserveAt(future, dur)
		} else {
			s1, e1 = r.Reserve(at, dur)
			s2, e2 = ref.reserve(at, dur)
		}
		if s1 != s2 || e1 != e2 {
			t.Fatalf("op %d: grant (%d,%d) != reference (%d,%d)", op, s1, e1, s2, e2)
		}
		if r.FreeAt() != ref.freeAt || r.Busy() != ref.busy {
			t.Fatalf("op %d: frontier/busy (%d,%d) != reference (%d,%d)",
				op, r.FreeAt(), r.Busy(), ref.freeAt, ref.busy)
		}
		shape.check(t, "clocked", op, r)
		if op%5000 == 0 {
			requireSameTable(t, "checkpoint", r, ref)
		}
	}
	requireSameTable(t, "end", r, ref)
	// The stream must have reached every path it exists to test.
	if below == 0 || deadFits == 0 || fullWithDead == 0 {
		t.Fatalf("stream missed a path: %d reservations below the clock, %d with a fitting dead gap, %d ops on a full table with dead gaps",
			below, deadFits, fullWithDead)
	}
}

// TestGapResourceClockedEvictionTies drives clocked tables with few
// distinct gap sizes, so eviction keeps choosing among equal-sized gaps and
// must take the lowest key. live is in start order, not key order, so that
// holds only if the eviction scan compares keys on equal sizes and a
// replacement inheriting a dead victim's key still takes its own place in
// start order.
func TestGapResourceClockedEvictionTies(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := NewRng(seed)
		pools := &Pools{}
		r := pools.GapResource()
		clock := startClock(pools)
		ref := &refGapResource{}
		var shape shapeChecker
		label := fmt.Sprintf("seed %d", seed)
		var now Time
		for op := 0; op < 30000; op++ {
			now += Time(rng.Intn(3))
			advance(clock, now)
			at, dur := now+Time(rng.Intn(3)), Time(rng.Intn(3))
			var s1, e1, s2, e2 Time
			if rng.Intn(2) == 0 {
				future := at + Time(rng.Intn(700))
				s1, e1 = r.ReserveAt(future, dur)
				s2, e2 = ref.reserveAt(future, dur)
			} else {
				s1, e1 = r.Reserve(at, dur)
				s2, e2 = ref.reserve(at, dur)
			}
			if s1 != s2 || e1 != e2 {
				t.Fatalf("seed %d op %d: grant (%d,%d) != reference (%d,%d)", seed, op, s1, e1, s2, e2)
			}
			shape.check(t, label, op, r)
		}
		requireSameTable(t, fmt.Sprintf("seed %d", seed), r, ref)
	}
}

// lockstep applies one operation to a table and to the reference (ReserveAt
// when exact, else Reserve) and requires the same grant, the same table in
// key order and the table's invariant afterwards.
func lockstep(t *testing.T, r *GapResource, ref *refGapResource, exact bool, at, dur Time) {
	t.Helper()
	var s1, e1, s2, e2 Time
	if exact {
		s1, e1 = r.ReserveAt(at, dur)
		s2, e2 = ref.reserveAt(at, dur)
	} else {
		s1, e1 = r.Reserve(at, dur)
		s2, e2 = ref.reserve(at, dur)
	}
	when := fmt.Sprintf("exact=%v at=%d dur=%d", exact, at, dur)
	if s1 != s2 || e1 != e2 {
		t.Fatalf("%s: grant (%d,%d) != reference (%d,%d)", when, s1, e1, s2, e2)
	}
	requireSameTable(t, when, r, ref)
	var shape shapeChecker
	shape.check(t, when, 0, r)
}

// TestGapResourceEdgeTieInheritedKey: a zero-length reservation at the
// shared edge of two adjacent windows fits both at the same instant, and
// the lower key must win even when it belongs to the later window, which
// inherited it from an eviction victim.
func TestGapResourceEdgeTieInheritedKey(t *testing.T) {
	r, ref := newTable(), &refGapResource{}
	lockstep(t, r, ref, true, 1, 1) // [0, 1): the smallest window, key 0
	for len(r.live) < maxGaps-1 {
		lockstep(t, r, ref, true, r.FreeAt()+10, 1)
	}
	a := r.FreeAt()
	lockstep(t, r, ref, true, a+20, 0) // [a, a+20) fills the table
	b := r.FreeAt()
	lockstep(t, r, ref, true, b+20, 0) // [b, b+20) evicts [0, 1), takes key 0
	n := len(r.live)
	if w, v := r.live[n-2], r.live[n-1]; w.start != a || w.end != b || v.start != b || v.key >= w.key {
		t.Fatalf("setup: want adjacent windows with the later one on the lower key, got %+v %+v", w, v)
	}
	lockstep(t, r, ref, false, b, 0)
}

// TestGapResourceBelowClockUnheapedDead: a reservation behind the clock
// consumes a dead window from the middle of the unheaped dead array, and
// the evictions that follow must still find the smallest window, here a
// remnant of that reservation filed after the older dead windows.
func TestGapResourceBelowClockUnheapedDead(t *testing.T) {
	pools := &Pools{}
	r, ref := pools.GapResource(), &refGapResource{}
	clock := startClock(pools)
	var mid Time
	for i := 0; i < 100; i++ {
		size := Time(10)
		switch i {
		case 2:
			size = 3
		case 5:
			size, mid = 20, r.FreeAt()
		}
		lockstep(t, r, ref, true, r.FreeAt()+size, 1)
	}
	advance(clock, r.FreeAt()+1)
	// Only the size-20 window fits: remnants of sizes 2 and 3 are left.
	lockstep(t, r, ref, false, mid+2, 15)
	if len(r.dead) != 99 || r.heaped {
		t.Fatalf("setup: want 99 unheaped dead windows, got %d (heaped %v)", len(r.dead), r.heaped)
	}
	for len(r.live)+len(r.dead) < maxGaps {
		lockstep(t, r, ref, true, r.FreeAt()+10, 1)
	}
	lockstep(t, r, ref, true, r.FreeAt()+10, 1) // evicts the size-2 remnant
	lockstep(t, r, ref, true, r.FreeAt()+10, 1) // the size-3 window on the lower key
	if !r.heaped {
		t.Fatal("eviction left dead unheaped")
	}
}

// TestGapResourceEvictionTieAcrossOrders: eviction among equal-sized live
// windows whose start order and key order differ takes the lowest key, not
// the earliest start.
func TestGapResourceEvictionTieAcrossOrders(t *testing.T) {
	r, ref := newTable(), &refGapResource{}
	lockstep(t, r, ref, true, 100, 1)          // [0, 100), key 0
	lockstep(t, r, ref, true, r.FreeAt()+4, 1) // [101, 105), key 1
	for len(r.live) < maxGaps-1 {
		lockstep(t, r, ref, true, r.FreeAt()+10, 1)
	}
	// Consuming the middle of [0, 100) leaves [0, 4) and [96, 100), both
	// of size 4, on the newest keys, and fills the table.
	lockstep(t, r, ref, false, 4, 92)
	if w := r.live[0]; w.start != 0 || w.end != 4 || w.key <= r.live[2].key {
		t.Fatalf("setup: want [0, 4) first on a newer key than [101, 105), got %+v %+v", w, r.live[2])
	}
	lockstep(t, r, ref, true, r.FreeAt()+50, 1) // evicts [101, 105)
}

// TestGapResourceSteadyStateAllocFree: once a table is full, Reserve and
// ReserveAt allocate nothing, whether its clock stays at zero or follows
// the requests.
func TestGapResourceSteadyStateAllocFree(t *testing.T) {
	for _, clocked := range []bool{false, true} {
		pools := &Pools{}
		r, name := newTable(), "idle-clock"
		if clocked {
			r, name = pools.GapResource(), "clocked"
		}
		clock := startClock(pools)
		var at Time
		step := func() {
			at += 11
			advance(clock, at)
			r.ReserveAt(at+10000, 50) // future booking leaves a gap behind
			r.Reserve(at, 3)
			r.Reserve(at+7, 0)
		}
		// A step leaves two windows behind, so the table fills in
		// maxGaps/2 steps; one still short after 4*maxGaps has stopped
		// filling, and looping on would hang the package.
		for steps := 0; len(r.live)+len(r.dead) < maxGaps; steps++ {
			if steps == 4*maxGaps {
				t.Fatalf("%s: %d windows after %d steps, the table never fills to %d", name, len(r.live)+len(r.dead), steps, maxGaps)
			}
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("%s: steady-state Reserve/ReserveAt allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}
