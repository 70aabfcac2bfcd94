package sim

import (
	"math"
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

// TestEngineSequenceLimit pins the limits of the packed seq<<32 | slot key:
// Start refuses 2^32 slots before it allocates a leaf, the last two
// sequence numbers still fire in scheduling order, and the Reschedule that
// would need sequence number 2^32 panics instead of wrapping to 0.
func TestEngineSequenceLimit(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("Start(2^32)", func() { e.Start(math.MaxUint32 + 1) })

	e.Start(3)
	fire(t, e, 0, 0)
	e.SetSeq(math.MaxUint32 - 1)
	e.Reschedule(5) // sequence number 2^32-2
	fire(t, e, 1, 0)
	e.Reschedule(5) // 2^32-1, the last one
	fire(t, e, 2, 0)
	mustPanic("Reschedule at sequence 2^32", func() { e.Reschedule(5) })
	// Slot 2 stays fired and retires at the next Next; a wrapped sequence
	// number would have made it fire first at 5.
	fire(t, e, 0, 5)
	fire(t, e, 1, 5)
	if _, ok := e.Next(); ok {
		t.Fatal("Next fired a slot after the engine drained")
	}
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
	r := NewResource()
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
	r := NewResource()
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
	r := NewResource()
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
	r := NewResource()
	r.Reserve(0, 50)
	r.Reset()
	if r.Busy() != 0 || r.FreeAt() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: reservations never overlap and never start before requested.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource()
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
	z := NewZipfTable(1.0, 100)
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Index(r.Float64())]++
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
	r := NewRng(11)
	z := NewZipfTable(0.8, 7)
	for i := 0; i < 10000; i++ {
		v := z.Index(r.Float64())
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
	NewZipfTable(1.0, 0)
}

// searchCDF is the reference lookup ZipfTable replaced: a binary search
// for the first index whose CDF reaches u, capped at the last index.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfTableMatchesBinarySearch: the guide-table lookup returns the
// binary search's index at every point where either could go wrong: each
// CDF value and its float neighbours, each bucket edge j/n and its
// neighbours, 0, the largest float64 below 1, and 1 itself.
func TestZipfTableMatchesBinarySearch(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 1.35} {
		for _, n := range []int{1, 2, 7, 4096, 10240} {
			z := NewZipfTable(s, n)
			cdf := ZipfCDF(s, n)
			us := []float64{0, math.Nextafter(1, 0), 1}
			for i, c := range cdf {
				edge := float64(i) / float64(n)
				us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1),
					edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1))
			}
			for _, u := range us {
				if u < 0 || u > 1 {
					continue
				}
				if got, want := z.Index(u), searchCDF(cdf, u); got != want {
					t.Fatalf("s=%g n=%d: Index(%v) = %d, binary search %d", s, n, u, got, want)
				}
			}
		}
	}
}

// TestNewProbMatchesFloat64: for every draw near the bound, the integer
// compare agrees with Float64's divide-and-compare, over probabilities on
// and off Float64's 2^-53 grid and the out-of-range ones.
func TestNewProbMatchesFloat64(t *testing.T) {
	ps := []float64{0, -1, math.NaN(), 2, 1, math.Nextafter(1, 0), 0.5, 0.95, 0.001,
		0x1p-53, math.Nextafter(0x1p-53, 0), math.Nextafter(0x1p-53, 1), math.SmallestNonzeroFloat64}
	r := NewRng(3)
	for i := 0; i < 1000; i++ {
		p := r.Float64()
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	for _, p := range ps {
		bound := uint64(NewProb(p))
		mid := int64(0)
		if p > 0 && p < 1 {
			mid = int64(p * (1 << 53))
		}
		ks := []int64{0, 1, 1<<53 - 2, 1<<53 - 1}
		for k := mid - 2; k <= mid+2; k++ {
			ks = append(ks, k)
		}
		for _, k := range ks {
			if k < 0 || k >= 1<<53 {
				continue
			}
			if got, want := uint64(k) < bound, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v draw bits %d: integer compare %v, Float64 compare %v", p, k, got, want)
			}
		}
	}
}

// unmix inverts mix, so that a test can choose the next draw.
func unmix(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= 0x319642b2d24d8ec3 // the inverse of 0x94d049bb133111eb mod 2^64
	z ^= z>>27 ^ z>>54
	z *= 0x96de1b173f119089 // the inverse of 0xbf58476d1ce4e5b9 mod 2^64
	z ^= z>>30 ^ z>>60
	return z
}

// rngDrawing returns a generator whose next draw is x.
func rngDrawing(x uint64) *Rng { return NewRng(unmix(x) - 0x9e3779b97f4a7c15) }

// TestRngHitMatchesFloat64: Hit and Misses make the draw Float64 makes and
// give its answer, on seeded streams and on draws chosen at the bound,
// where Float64 returns exactly p or its neighbours on the 2^-53 grid.
func TestRngHitMatchesFloat64(t *testing.T) {
	for _, p := range []float64{0, 0.001, 0.5, 0.95, 1} {
		a, b := NewRng(9), NewRng(9)
		prob := NewProb(p)
		for i := 0; i < 10000; i++ {
			if got, want := a.Hit(prob), b.Float64() < p; got != want {
				t.Fatalf("p=%g draw %d: Hit %v, Float64() < p %v", p, i, got, want)
			}
		}
	}
	for _, x := range []uint64{0, 1, 0x0123456789abcdef, math.MaxUint64} {
		if mix(unmix(x)) != x {
			t.Fatalf("unmix does not invert mix at %#x", x)
		}
	}
	for _, k := range []uint64{1, 2, 1 << 20, 3 << 50, 1<<53 - 1} {
		for _, d := range []uint64{k - 1, k, k + 1} {
			if d >= 1<<53 {
				continue
			}
			p := float64(k) / (1 << 53)
			x := d<<11 | 0x5a5
			want := rngDrawing(x).Float64() < p
			if got := rngDrawing(x).Hit(NewProb(p)); got != want {
				t.Fatalf("p=%d/2^53 draw bits %d: Hit %v, Float64() < p %v", k, d, got, want)
			}
			if got := rngDrawing(x).Misses(NewProb(p), 1) == 0; got != want {
				t.Fatalf("p=%d/2^53 draw bits %d: Misses hit %v, Float64() < p %v", k, d, got, want)
			}
		}
	}
}

// TestRngMissesMatchesLoop: Misses counts what a loop of Float64() >= p
// draws counts and leaves the generator where that loop leaves it.
func TestRngMissesMatchesLoop(t *testing.T) {
	for _, p := range []float64{0.001, 0.5, 0.95} {
		for _, limit := range []int{0, 1, 1000} {
			for seed := uint64(0); seed < 20; seed++ {
				a, b := NewRng(seed), NewRng(seed)
				for call := 0; call < 50; call++ {
					got := a.Misses(NewProb(p), limit)
					want := 0
					for want < limit && b.Float64() >= p {
						want++
					}
					if got != want || a.state != b.state {
						t.Fatalf("p=%g limit=%d seed=%d call %d: %d misses, state %#x; loop %d, state %#x",
							p, limit, seed, call, got, a.state, want, b.state)
					}
				}
			}
		}
	}
}
