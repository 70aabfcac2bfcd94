// Package sim provides the discrete-event simulation kernel used by every
// other component of the Ohm-GPU model: a picosecond-resolution clock, a
// fixed-slot event scheduler with deterministic ordering (one slot per
// resident warp), and helpers for modelling occupancy of shared resources
// (channels, banks, buffers).
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulation time in picoseconds. Using integer picoseconds keeps
// every timing computation exact: a 1.2 GHz GPU cycle is 833 ps, a 30 GHz
// optical bit-slot is 33 ps, and XPoint's 763 ns write is 763_000 ps.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1_000
	Microsecond Time = 1_000_000
	Millisecond Time = 1_000_000_000
	Second      Time = 1_000_000_000_000
)

// String renders the time with an adaptive unit, e.g. "1.234us".
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t would overflow back to MinInt64 and recurse forever; render
		// the one unnegatable value directly in seconds.
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds (for energy integration).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// FreqToPeriod converts a frequency in Hz to the integer period in
// picoseconds, rounding to the nearest picosecond. It panics on
// non-positive frequencies, which are always configuration errors.
func FreqToPeriod(hz float64) Time {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v", hz))
	}
	return Time(1e12/hz + 0.5)
}

// entry is one slot's pending event in 16 bytes: its time, then its
// sequence number and slot packed as seq<<32 | slot. Events with equal time
// fire in the order of their sequence numbers (i.e. scheduling order),
// which makes simulations deterministic regardless of the tree's
// internals; sequence numbers are unique, so the slot bits below them
// never decide a match.
type entry struct {
	at  Time
	key uint64
}

// slot is the slot an entry belongs to.
func (x entry) slot() int { return int(uint32(x.key)) }

// idle is the key of a leaf with no pending event, a retired slot or the
// padding past the last one. It loses every match, and no pending event's
// key equals it: a slot is below the slot count, itself below 2^32, so the
// low word of a pending key is never all ones.
var idle = entry{at: math.MaxInt64, key: math.MaxUint64}

// Engine is a single-threaded discrete-event scheduler over a fixed set of
// slots. A slot is one component's place in the queue and holds at most one
// pending event; in the GPU model it is a resident warp. The zero value is
// an engine with no slots at time zero; Start it before calling Next.
//
// The queue is a loser tree: a tournament over the slots whose internal
// nodes keep the loser of each match and whose root keeps the overall
// winner, the earliest (at, seq) key. Only the slot that just fired changes
// its key, and every match it played lies on its leaf-to-root path, so a
// reschedule or a retirement replays that one path: log2 of the padded
// slot count compare-and-swaps (7 for 128 warps) of 16-byte entries, with
// no child selection. Keys are unique and the minimum always fires, so
// events fire in the same order as from any correct priority queue.
//
// Slots and sequence numbers share one 64-bit word, so each Start takes
// fewer than 2^32 slots (Start panics otherwise) and schedules at most 2^32
// events: the n slots' first events plus every Reschedule, which panics
// rather than wrap. A validated cell stays far below that: it simulates at
// most 2^28 trace instructions (config.MaxTraceInstructions) on at most as
// many warps, and each Reschedule follows an event that issued at least
// one instruction, so it schedules at most 2^29 events per Start.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// tree[0] is the winner and tree[1:] the internal nodes: node p has
	// children 2p and 2p+1, and slot s is the leaf at len(tree)+s. The
	// leaf count, len(tree), is the slot count rounded up to a power of
	// two.
	tree []entry

	// held is set while tree[0] is a fired slot that no Reschedule has
	// replaced yet.
	held bool
}

// NewEngine returns an engine with no slots at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Start makes slots 0..n-1 pending at time zero, in slot order, and rewinds
// the clock, the sequence numbers and the fired count. It allocates only
// when n needs more leaves than every earlier Start did, and panics when n
// is 2^32 or more.
func (e *Engine) Start(n int) {
	if int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: %d slots, want fewer than 2^32", n))
	}
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(e.tree) < size {
		e.tree = make([]entry, size)
	}
	e.tree = e.tree[:size]
	// Every key is (0, slot), so the left side wins each match and node p
	// keeps the winner of its right subtree: that subtree's leftmost slot.
	for p := 1; p < size; p++ {
		q := 2*p + 1
		for q < size {
			q <<= 1
		}
		e.tree[p] = startEntry(q-size, n)
	}
	e.tree[0] = startEntry(0, n)
	e.now, e.seq, e.fired = 0, uint64(n), 0
	e.held = false
}

// startEntry is slot s's key at Start(n).
func startEntry(s, n int) entry {
	if s >= n {
		return idle
	}
	return entry{key: uint64(s)<<32 | uint64(s)}
}

// Next fires the pending slot with the earliest (at, seq) key and advances
// the clock to its time. The slot the previous Next fired retires first
// unless it was rescheduled. ok is false once no slot is pending.
func (e *Engine) Next() (slot int, ok bool) {
	if e.held {
		e.held = false
		e.replay(idle)
	}
	w := e.tree[0]
	if w.key == idle.key {
		return 0, false
	}
	e.now = w.at
	e.fired++
	e.held = true
	return w.slot(), true
}

// Reschedule gives the slot the last Next fired its next event, at absolute
// time at. Rescheduling in the past panics: it is always a model bug, and
// silently clamping would hide causality violations. So does rescheduling
// when no fired slot is waiting for it, or once the Start has scheduled
// 2^32 events.
func (e *Engine) Reschedule(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %s before now %s", at, e.now))
	}
	if !e.held {
		panic("sim: reschedule with no fired slot")
	}
	if e.seq > math.MaxUint32 {
		panic("sim: 2^32 events scheduled since Start")
	}
	e.held = false
	e.replay(entry{at: at, key: e.seq<<32 | uint64(e.tree[0].slot())})
	e.seq++
}

// replay gives the fired slot in tree[0] the key x and replays its matches
// from its leaf to the root; x ends as the new winner. Each match is
// branch-free: the borrow of the 128-bit subtraction node - x says whether
// the node's key is the smaller, and masks then swap the two entries. The
// winners of a tournament are hard to predict, so a compare-and-branch
// here mispredicts often. Keys compare as unsigned: a time is never
// negative, since nothing is scheduled before the clock, which starts at 0.
func (e *Engine) replay(x entry) {
	t := e.tree
	for p := (len(t) + t[0].slot()) >> 1; p > 0; p >>= 1 {
		n := &t[p]
		_, b := bits.Sub64(n.key, x.key, 0)
		_, b = bits.Sub64(uint64(n.at), uint64(x.at), b)
		m := -b // all ones when the node's key is the smaller: it moves up
		at := (uint64(n.at) ^ uint64(x.at)) & m
		key := (n.key ^ x.key) & m
		n.at, x.at = Time(uint64(n.at)^at), Time(uint64(x.at)^at)
		n.key, x.key = n.key^key, x.key^key
	}
	t[0] = x
}
