package sim

import "testing"

// BenchmarkEngineChurn is the kernel's steady-state fire->reschedule cycle
// at a realistic population (one slot per resident warp).
func BenchmarkEngineChurn(b *testing.B) {
	c := newChurn(NewEngine(), 128, 61)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// BenchmarkGapResourceFrontier is the common fast path: reservations past
// every remembered gap append at the frontier without scanning.
func BenchmarkGapResourceFrontier(b *testing.B) {
	r := newTable()
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 7
		r.Reserve(at, 5)
	}
}

// BenchmarkGapResourceBackfill keeps live gaps around the request time so
// the first-fit scan actually runs (future bookings create the gaps).
func BenchmarkGapResourceBackfill(b *testing.B) {
	r := newTable()
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 11
		if i%8 == 0 {
			r.ReserveAt(at+10000, 50) // future booking leaves a gap behind
		}
		r.Reserve(at, 3)
	}
}

// BenchmarkGapResourceBackfillClocked is the backfill pattern on a pooled
// resource whose engine clock follows the request time, as in a run: gaps
// the requests have moved past retire from the first-fit scan.
func BenchmarkGapResourceBackfillClocked(b *testing.B) {
	pools := &Pools{}
	r := tableIn(pools)
	clock := startClock(pools)
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 11
		advance(clock, at)
		if i%8 == 0 {
			r.ReserveAt(at+10000, 50)
		}
		r.Reserve(at, 3)
	}
}
