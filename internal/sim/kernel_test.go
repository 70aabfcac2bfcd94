package sim

import (
	"container/heap"
	"math"
	"strings"
	"testing"
)

// refEvent / refHeap reimplement the pre-rewrite container/heap event queue
// as the ordering oracle: the index-based 4-ary kernel must pop events in
// exactly the (at, seq) order the pointer heap produced.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// orderRecorder collects the ids of fired closure-free events.
type orderRecorder struct{ got []uint64 }

func (r *orderRecorder) Handle(arg uint64) { r.got = append(r.got, arg) }

// TestKernelMatchesReferenceHeap drives the engine and the old-kernel
// reference with an identical pseudo-random schedule — heavy time
// collisions included — and requires the exact same firing order.
func TestKernelMatchesReferenceHeap(t *testing.T) {
	const n = 5000
	rng := NewRng(42)
	eng := NewEngine()
	rec := &orderRecorder{}
	var ref refHeap
	var seq uint64
	for i := 0; i < n; i++ {
		// Few distinct times => many (at) ties resolved by seq.
		at := Time(rng.Intn(97))
		eng.ScheduleID(at, rec, uint64(i))
		heap.Push(&ref, &refEvent{at: at, seq: seq, id: i})
		seq++
	}
	eng.Run()
	if len(rec.got) != n {
		t.Fatalf("fired %d events, want %d", len(rec.got), n)
	}
	for i := 0; i < n; i++ {
		want := heap.Pop(&ref).(*refEvent)
		if rec.got[i] != uint64(want.id) {
			t.Fatalf("event %d fired id %d, reference heap says %d", i, rec.got[i], want.id)
		}
	}
}

// reschedulingHandler is a component that schedules zero, one or two
// successors from each event, often at the current instant, and checks every
// firing against the reference heap as it goes.
type reschedulingHandler struct {
	t    *testing.T
	eng  *Engine
	rng  *Rng
	ref  refHeap
	seq  uint64
	next int
}

func (h *reschedulingHandler) schedule(at Time) {
	h.eng.ScheduleID(at, h, uint64(h.next))
	heap.Push(&h.ref, &refEvent{at: at, seq: h.seq, id: h.next})
	h.seq++
	h.next++
}

func (h *reschedulingHandler) Handle(arg uint64) {
	want := heap.Pop(&h.ref).(*refEvent)
	if arg != uint64(want.id) || h.eng.Now() != want.at {
		h.t.Fatalf("fired id %d at %d, reference heap says id %d at %d", arg, h.eng.Now(), want.id, want.at)
	}
	if h.eng.Pending() != h.ref.Len() {
		h.t.Fatalf("Pending() = %d inside a handler, reference has %d", h.eng.Pending(), h.ref.Len())
	}
	n := 1
	switch h.rng.Intn(4) {
	case 0:
		n = 0
	case 1:
		n = 2
	}
	for ; n > 0 && h.next < 50000; n-- {
		h.schedule(h.eng.Now() + Time(h.rng.Intn(4)))
	}
}

// TestKernelReschedulingMatchesReferenceHeap covers the held root: a
// handler's first Schedule replaces the fired entry, and a handler that
// schedules nothing leaves it to be popped. Firing order must match the
// reference heap event for event.
func TestKernelReschedulingMatchesReferenceHeap(t *testing.T) {
	h := &reschedulingHandler{t: t, eng: NewEngine(), rng: NewRng(5)}
	for i := 0; i < 300; i++ {
		h.schedule(Time(h.rng.Intn(50)))
	}
	h.eng.Run()
	if h.ref.Len() != 0 || h.eng.Pending() != 0 || h.eng.Fired() != uint64(h.next) {
		t.Fatalf("fired %d of %d events; %d left in the reference, %d pending",
			h.eng.Fired(), h.next, h.ref.Len(), h.eng.Pending())
	}
}

// TestKernelStepFromHandler: a handler may drive the engine itself. The
// fired entry it still holds at the root must be popped first, or a nested
// Step would fire it again and a nested RunUntil would run past its
// deadline.
func TestKernelStepFromHandler(t *testing.T) {
	eng := NewEngine()
	rec := &orderRecorder{}
	eng.ScheduleID(0, handlerFunc(func(arg uint64) {
		rec.Handle(arg)
		eng.Step() // fires id 1 at t=2
	}), 0)
	eng.ScheduleID(2, rec, 1)
	eng.ScheduleID(4, handlerFunc(func(arg uint64) {
		rec.Handle(arg)
		eng.RunUntil(5) // nothing else is due by t=5
		if eng.Now() != 5 || len(rec.got) != 3 {
			t.Fatalf("nested RunUntil(5) left the clock at %d having fired %v", eng.Now(), rec.got)
		}
	}), 2)
	eng.ScheduleID(6, rec, 3)
	eng.Run()
	want := []uint64{0, 1, 2, 3}
	if len(rec.got) != len(want) {
		t.Fatalf("fired %v, want %v", rec.got, want)
	}
	for i := range want {
		if rec.got[i] != want[i] {
			t.Fatalf("fired %v, want %v", rec.got, want)
		}
	}
}

// TestScheduleAndScheduleIDInterleave proves the closure shim and the
// closure-free path share one sequence ordering: alternating both forms at
// one timestamp fires in exact submission order.
func TestScheduleAndScheduleIDInterleave(t *testing.T) {
	eng := NewEngine()
	var got []int
	rec := handlerFunc(func(arg uint64) { got = append(got, int(arg)) })
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			i := i
			eng.Schedule(5, func() { got = append(got, i) })
		} else {
			eng.ScheduleID(5, rec, uint64(i))
		}
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired event %d; closure and ID events must share seq order", i, v)
		}
	}
}

type handlerFunc func(arg uint64)

func (f handlerFunc) Handle(arg uint64) { f(arg) }

// churnHandler keeps a constant-population event queue: every fired event
// schedules its successor, the steady state of every simulation.
type churnHandler struct {
	eng  *Engine
	left int
}

func (h *churnHandler) Handle(arg uint64) {
	if h.left <= 0 {
		return
	}
	h.left--
	h.eng.ScheduleID(h.eng.Now()+Time(1+arg%13), h, arg+1)
}

// TestSteadyStateLoopAllocFree is the tentpole guard: once the arena and
// free-list are warm, the closure-free schedule->fire loop must not
// allocate at all.
func TestSteadyStateLoopAllocFree(t *testing.T) {
	eng := NewEngine()
	h := &churnHandler{eng: eng, left: 1 << 30}
	const population = 32
	for i := 0; i < population; i++ {
		eng.ScheduleID(Time(i), h, uint64(i))
	}
	// Warm the arena, heap and free-list.
	for i := 0; i < 4*population; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state event loop allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFreeListRecyclesArena(t *testing.T) {
	eng := NewEngine()
	rec := &orderRecorder{}
	// Schedule and drain the same population repeatedly: the arena must not
	// grow past the high-water mark of simultaneously pending events.
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			eng.ScheduleID(eng.Now()+Time(i+1), rec, uint64(i))
		}
		eng.Run()
	}
	if got := len(eng.arena); got > 8 {
		t.Fatalf("arena grew to %d slots for a max-8-pending workload", got)
	}
}

func TestTimeStringMinInt64(t *testing.T) {
	// Regression: -t on MinInt64 wraps back to MinInt64 and used to recurse
	// until stack exhaustion.
	s := Time(math.MinInt64).String()
	if !strings.HasPrefix(s, "-") || !strings.HasSuffix(s, "s") {
		t.Fatalf("Time(MinInt64).String() = %q, want a negative seconds rendering", s)
	}
	// Ordinary negatives keep the old format.
	if got := Time(-1500).String(); got != "-1.500ns" {
		t.Fatalf("Time(-1500).String() = %q, want \"-1.500ns\"", got)
	}
}
