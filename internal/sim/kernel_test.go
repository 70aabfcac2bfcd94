package sim

import (
	"container/heap"
	"math"
	"strings"
	"testing"
)

// refEvent / refHeap reimplement the pre-rewrite container/heap event queue
// as the ordering oracle: the loser tree must fire slots in exactly the
// (at, seq) order the pointer heap produced.
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

// checkAgainstReference starts eng with n slots and drives it and the
// reference heap side by side until both drain. Each fired slot retires
// with probability 1/retireOneIn, or once the run has fired maxEvents,
// and otherwise reschedules 0 to maxDelay-1 ps ahead. Every firing must
// match the reference in slot, time and fired count.
func checkAgainstReference(t *testing.T, eng *Engine, rng *Rng, n, maxDelay, retireOneIn, maxEvents int) {
	t.Helper()
	var ref refHeap
	for i := 0; i < n; i++ {
		heap.Push(&ref, &refEvent{at: 0, seq: uint64(i), id: i})
	}
	seq := uint64(n)
	eng.Start(n)
	for fired := uint64(1); ; fired++ {
		slot, ok := eng.Next()
		if !ok {
			break
		}
		if ref.Len() == 0 {
			t.Fatalf("n=%d: fired slot %d at %d after the reference drained", n, slot, eng.Now())
		}
		want := heap.Pop(&ref).(*refEvent)
		if slot != want.id || eng.Now() != want.at || eng.Fired() != fired {
			t.Fatalf("n=%d: firing %d (Fired()=%d) was slot %d at %d, reference heap says slot %d at %d",
				n, fired, eng.Fired(), slot, eng.Now(), want.id, want.at)
		}
		if rng.Intn(retireOneIn) == 0 || fired >= uint64(maxEvents) {
			continue
		}
		at := eng.Now() + Time(rng.Intn(maxDelay))
		eng.Reschedule(at)
		heap.Push(&ref, &refEvent{at: at, seq: seq, id: slot})
		seq++
	}
	if ref.Len() != 0 {
		t.Fatalf("n=%d: engine drained with %d events left in the reference", n, ref.Len())
	}
	if _, ok := eng.Next(); ok {
		t.Fatalf("n=%d: Next fired a slot after the engine drained", n)
	}
}

// TestKernelMatchesReferenceHeap drives the engine and the old-kernel
// reference with an identical pseudo-random schedule — heavy time
// collisions included — over slot counts that are zero, one, powers of two
// and not, on one engine reused across Starts of growing and shrinking
// size.
func TestKernelMatchesReferenceHeap(t *testing.T) {
	rng := NewRng(42)
	eng := NewEngine()
	for _, n := range []int{0, 1, 2, 3, 7, 128, 100, 129, 1, 0, 5} {
		// Few distinct delays => many (at) ties resolved by seq.
		checkAgainstReference(t, eng, rng, n, 97, 50, 20000)
	}
}

// TestKernelReschedulingMatchesReferenceHeap stresses retirement: a fired
// slot retires one time in four, and the rest reschedule at most 3 ps
// ahead, so ties at the current instant are the rule and retired leaves
// keep losing matches on paths the survivors replay.
func TestKernelReschedulingMatchesReferenceHeap(t *testing.T) {
	rng := NewRng(5)
	eng := NewEngine()
	for _, n := range []int{300, 64, 33} {
		checkAgainstReference(t, eng, rng, n, 4, 4, 50000)
	}
}

// churn reschedules the slot just fired: slot i's k-th event waits
// 1+(i+k)%mod ps after its previous one, keeping the population constant
// as every simulation's steady state does.
type churn struct {
	eng *Engine
	arg []uint64
	mod uint64
}

func newChurn(eng *Engine, population int, mod uint64) *churn {
	c := &churn{eng: eng, arg: make([]uint64, population), mod: mod}
	for i := range c.arg {
		c.arg[i] = uint64(i)
	}
	eng.Start(population)
	return c
}

func (c *churn) step() {
	s, _ := c.eng.Next()
	c.eng.Reschedule(c.eng.Now() + Time(1+c.arg[s]%c.mod))
	c.arg[s]++
}

// TestSteadyStateLoopAllocFree is the tentpole guard: the fire->reschedule
// loop must not allocate at all, and neither may a Start that needs no
// more leaves than an earlier one did.
func TestSteadyStateLoopAllocFree(t *testing.T) {
	eng := NewEngine()
	c := newChurn(eng, 32, 13)
	for i := 0; i < 4*32; i++ {
		c.step()
	}
	if allocs := testing.AllocsPerRun(2000, c.step); allocs != 0 {
		t.Fatalf("steady-state event loop allocates %.1f objects/op, want 0", allocs)
	}
	for _, n := range []int{32, 5, 0, 17} {
		if allocs := testing.AllocsPerRun(100, func() { eng.Start(n) }); allocs != 0 {
			t.Fatalf("Start(%d) after Start(32) allocates %.1f objects/op, want 0", n, allocs)
		}
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
