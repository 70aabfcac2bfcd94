// Package sim provides the discrete-event simulation kernel used by every
// other component of the Ohm-GPU model: a picosecond-resolution clock, an
// event queue with deterministic ordering, and helpers for modelling
// occupancy of shared resources (channels, banks, buffers).
package sim

import (
	"fmt"
	"math"
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

// Forever is a sentinel time later than any event a simulation schedules.
const Forever Time = 1<<62 - 1

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

// Handler is the closure-free event callback: components implement it once
// and pass a uint64 argument (a warp index, a request id) per event, so the
// steady-state event loop allocates nothing. The hot schedulers (GPU warp
// issue/retire) use this path; Schedule(at, func()) remains as a
// compatibility shim for cold paths and tests.
type Handler interface {
	Handle(arg uint64)
}

// event is one scheduled callback's payload, stored by value in the
// engine's arena. Exactly one of fn and h is set.
type event struct {
	arg uint64
	h   Handler
	fn  func()
}

// entry is one heap element: the event's ordering key, inline, and the
// arena slot holding its payload. Events with equal time fire in the order
// of their sequence numbers (i.e. scheduling order), which makes
// simulations deterministic regardless of heap internals.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
//
// The queue is a 4-ary min-heap of entries ordered by their inline (at,
// seq) keys; the payloads live by value in an arena slice whose slots are
// recycled through a free-list. Compared to the former container/heap of
// *event this removes the per-event allocation and the interface{} boxing
// on push/pop, and sift comparisons read the keys they move instead of
// indirecting through the arena.
//
// A fired event's entry stays at the root while its handler runs, and the
// handler's first Schedule replaces it: one sift-down from the root, which
// stops early for the near-future successor a component usually schedules,
// instead of a pop that sinks the last leaf and a push. Keys are unique, so
// every valid heap fires events in the same order.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	arena []event // event payloads, indexed by entry.slot
	heap  []entry // 4-ary min-heap ordered by (at, seq)
	free  []int32 // recycled arena slots

	// held is set while the root is a fired entry that no Schedule has
	// replaced yet.
	held bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int {
	if e.held {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// less orders heap entries by (at, seq).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event, reusing a free arena slot when one exists.
func (e *Engine) push(at Time, ev event) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[slot] = ev
	} else {
		slot = int32(len(e.arena))
		e.arena = append(e.arena, ev)
	}
	ent := entry{at: at, seq: e.seq, slot: slot}
	e.seq++
	if e.held {
		e.held = false
		e.heap[0] = ent
		e.siftDown(0)
		return
	}
	e.heap = append(e.heap, ent)
	e.siftUp(len(e.heap) - 1)
}

// settle pops a fired root that no Schedule replaced.
func (e *Engine) settle() {
	if e.held {
		e.held = false
		e.pop()
	}
}

// pop removes the earliest entry.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&x, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it is
// always a model bug, and silently clamping would hide causality violations.
//
// This is the compatibility shim over the value-typed queue: the closure
// itself is still one allocation at the call site. Hot paths should use
// ScheduleID.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %s before now %s", at, e.now))
	}
	e.push(at, event{fn: fn})
}

// ScheduleID runs h.Handle(arg) at absolute time at. It shares the sequence
// counter with Schedule, so closure and closure-free events interleave in
// exact scheduling order. The steady-state cost is zero allocations: the
// Handler is an interface over a pre-existing pointer and the event is
// stored by value in a recycled arena slot.
func (e *Engine) ScheduleID(at Time, h Handler, arg uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %s before now %s", at, e.now))
	}
	e.push(at, event{h: h, arg: arg})
}

// After runs fn delay picoseconds from now.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %s", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// AfterID runs h.Handle(arg) delay picoseconds from now on the closure-free
// path.
func (e *Engine) AfterID(delay Time, h Handler, arg uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %s", delay))
	}
	e.ScheduleID(e.now+delay, h, arg)
}

// Step executes the next event, advancing the clock. It reports whether an
// event was executed.
func (e *Engine) Step() bool {
	e.settle() // a handler stepping the engine itself
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	ev := &e.arena[top.slot]
	h, arg, fn := ev.h, ev.arg, ev.fn
	// Clear the slot's references before recycling so the arena does not
	// pin dead closures or handlers for the GC.
	ev.h, ev.fn = nil, nil
	e.free = append(e.free, top.slot)
	e.now = top.at
	e.fired++
	e.held = true
	if h != nil {
		h.Handle(arg)
	} else {
		fn()
	}
	e.settle()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline. The clock is left at the
// later of its current value and deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.settle()
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d picoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
