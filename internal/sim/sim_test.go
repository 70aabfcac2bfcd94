package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{Nanosecond, "1.000ns"},
		{1500, "1.500ns"},
		{Microsecond, "1.000us"},
		{Millisecond, "1.000ms"},
		{Second, "1.000s"},
		{-500, "-500ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFreqToPeriod(t *testing.T) {
	cases := []struct {
		hz   float64
		want Time
	}{
		{1e9, 1000},  // 1 GHz -> 1 ns
		{1.2e9, 833}, // GPU core clock
		{30e9, 33},   // optical channel
		{15e9, 67},   // electrical channel
		{1e12, 1},    // 1 THz -> 1 ps
	}
	for _, c := range cases {
		if got := FreqToPeriod(c.hz); got != c.want {
			t.Errorf("FreqToPeriod(%v) = %d, want %d", c.hz, got, c.want)
		}
	}
}

func TestFreqToPeriodPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive frequency")
		}
	}()
	FreqToPeriod(0)
}

// fire calls Next and requires it to fire slot want at time at.
func fire(t *testing.T, e *Engine, want int, at Time) {
	t.Helper()
	slot, ok := e.Next()
	if !ok || slot != want || e.Now() != at {
		t.Fatalf("Next() = slot %d (ok=%v) at %s, want slot %d at %s", slot, ok, e.Now(), want, at)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	e.Start(3)
	for slot, at := range []Time{30, 10, 20} {
		fire(t, e, slot, 0)
		e.Reschedule(at)
	}
	fire(t, e, 1, 10)
	fire(t, e, 2, 20)
	fire(t, e, 0, 30)
	if slot, ok := e.Next(); ok {
		t.Fatalf("slot %d fired after every slot retired", slot)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %s, want 30ps", e.Now())
	}
}

// Same-time events fire in scheduling order, not slot order: slots reach
// t=100 in reverse order and must fire there in reverse.
func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	e.Start(10)
	for i := 0; i < 10; i++ {
		fire(t, e, i, 0) // Start's ties fire in slot order
		e.Reschedule(Time(10 - i))
	}
	for i := 9; i >= 0; i-- {
		fire(t, e, i, Time(10-i))
		e.Reschedule(100)
	}
	for i := 9; i >= 0; i-- {
		fire(t, e, i, 100)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	e.Start(1)
	fire(t, e, 0, 0)
	e.Reschedule(10)
	fire(t, e, 0, 10)
	e.Reschedule(e.Now() + 5)
	fire(t, e, 0, 15)
	if _, ok := e.Next(); ok {
		t.Fatal("a slot that did not reschedule fired again")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Start(1)
	e.Next()
	e.Reschedule(10)
	e.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Reschedule(5)
}

// A negative delay from time zero is a negative time, which must never
// reach the tree: its keys compare as unsigned.
func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	e.Start(1)
	e.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Reschedule(e.Now() - 1)
}

// Only the slot the last Next fired may reschedule, only once, and not
// once Next has found nothing to fire.
func TestEngineRescheduleWithoutFiredSlotPanics(t *testing.T) {
	mustPanic := func(name string, f func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		e.Start(2)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic rescheduling with no fired slot", name)
			}
		}()
		f(e)
	}
	mustPanic("twice", func(e *Engine) {
		e.Next()
		e.Reschedule(10)
		e.Reschedule(20)
	})
	mustPanic("drained", func(e *Engine) {
		for _, ok := e.Next(); ok; _, ok = e.Next() {
		}
		e.Reschedule(20)
	})
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	e.Start(10)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
		if e.Now() < 9 {
			e.Reschedule(e.Now() + 1)
		}
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired = %d, want 100", e.Fired())
	}
	e.Start(3)
	if e.Fired() != 0 || e.Now() != 0 {
		t.Fatalf("Start left Fired = %d at %s, want 0 at 0ps", e.Fired(), e.Now())
	}
}

func TestResourceFCFS(t *testing.T) {
	r := NewResource("chan")
	s1, e1 := r.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first reservation [%d,%d), want [0,10)", s1, e1)
	}
	// Second request arrives at t=5 but must queue behind the first.
	s2, e2 := r.Reserve(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("queued reservation [%d,%d), want [10,20)", s2, e2)
	}
	// Third request arrives after the resource is idle.
	s3, e3 := r.Reserve(100, 10)
	if s3 != 100 || e3 != 110 {
		t.Fatalf("idle reservation [%d,%d), want [100,110)", s3, e3)
	}
	if r.Busy() != 30 {
		t.Fatalf("busy = %d, want 30", r.Busy())
	}
}

func TestResourceReserveAt(t *testing.T) {
	r := NewResource("bank")
	r.Reserve(0, 100)
	s, e := r.ReserveAt(50, 10) // overlapping window granted by arbiter
	if s != 50 || e != 60 {
		t.Fatalf("ReserveAt = [%d,%d), want [50,60)", s, e)
	}
	if r.FreeAt() != 100 {
		t.Fatalf("FreeAt = %d, want 100 (unchanged by interior window)", r.FreeAt())
	}
	_, e2 := r.ReserveAt(200, 10)
	if e2 != 210 || r.FreeAt() != 210 {
		t.Fatalf("ReserveAt beyond freeAt: end=%d freeAt=%d", e2, r.FreeAt())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("u")
	r.Reserve(0, 50)
	if got := r.Utilization(100); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("utilization at zero elapsed = %v, want 0", got)
	}
	if got := r.Utilization(10); got != 1 {
		t.Fatalf("utilization clamps to 1, got %v", got)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("r")
	r.Reserve(0, 50)
	r.Reset()
	if r.Busy() != 0 || r.FreeAt() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: reservations never overlap and never start before requested.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource("p")
		var lastEnd Time
		at := Time(0)
		for _, q := range reqs {
			dur := Time(q%1000) + 1
			at += Time(q % 7) // arrival times move forward
			s, e := r.Reserve(at, dur)
			if s < at || s < lastEnd || e != s+dur {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRng(43)
	same := true
	a = NewRng(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRngIntnRange(t *testing.T) {
	r := NewRng(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRngIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRng(1).Intn(0)
}

func TestRngFloat64Range(t *testing.T) {
	r := NewRng(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRng(5)
	z := NewZipf(r, 1.0, 100)
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Index 0 must be drawn far more often than index 99 under skew 1.0.
	if counts[0] < 10*counts[99]+1 {
		t.Fatalf("zipf not skewed: head=%d tail=%d", counts[0], counts[99])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("zipf dropped draws: %d != %d", total, n)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(NewRng(11), 0.8, 7)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 7 {
			t.Fatalf("zipf out of bounds: %d", v)
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=0")
		}
	}()
	NewZipf(NewRng(1), 1.0, 0)
}
