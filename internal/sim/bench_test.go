package sim

import "testing"

type benchHandler struct{ eng *Engine }

func (h *benchHandler) Handle(arg uint64) {
	h.eng.ScheduleID(h.eng.Now()+Time(1+arg%61), h, arg+1)
}

// BenchmarkEngineChurn is the kernel's steady-state schedule->pop cycle at
// a realistic queue population (one event per resident warp).
func BenchmarkEngineChurn(b *testing.B) {
	eng := NewEngine()
	h := &benchHandler{eng: eng}
	for i := 0; i < 128; i++ {
		eng.ScheduleID(Time(i), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkGapResourceFrontier is the common fast path: reservations past
// every remembered gap append at the frontier without scanning.
func BenchmarkGapResourceFrontier(b *testing.B) {
	r := NewGapResource("bench")
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
	r := NewGapResource("bench")
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
	r := pools.GapResource("bench")
	clock := pools.Engine()
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 11
		clock.RunUntil(at)
		if i%8 == 0 {
			r.ReserveAt(at+10000, 50)
		}
		r.Reserve(at, 3)
	}
}

// BenchmarkZipfSharedCDF draws from a generator over a pre-computed CDF —
// the per-warp cost after the CDF hoist in trace generation.
func BenchmarkZipfSharedCDF(b *testing.B) {
	cdf := ZipfCDF(1.0, 4096)
	z := NewZipfCDF(NewRng(1), cdf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
