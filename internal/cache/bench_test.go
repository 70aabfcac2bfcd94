package cache

import "testing"

// BenchmarkAccess measures the pure hit path (power-of-two sets: shift/mask
// indexing) at L1-like geometry. The loop cycles each set's six lines in
// order, so every hit lands at the LRU end of its set: the worst case for
// the move-to-front, which shifts all five more recent lines.
func BenchmarkAccess(b *testing.B) {
	c := MustNew("bench-l1", 3<<10, 6, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%24)*128, i%7 == 0)
	}
}

// BenchmarkAccessModulo covers the non-power-of-two set count (the scaled
// shared L2) that keeps the modulo indexing path.
func BenchmarkAccessModulo(b *testing.B) {
	c := MustNew("bench-l2", 384<<10, 8, 128) // 384 sets: not a power of two
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*128, false)
	}
}
