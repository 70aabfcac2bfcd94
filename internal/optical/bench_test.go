package optical

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkTransfer is the per-request channel cost: serialization,
// demux arbitration and handle-based energy accounting.
func BenchmarkTransfer(b *testing.B) {
	col := stats.NewCollector()
	c := NewChannel(config.DefaultOptical(), mcs, col)
	at := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 500
		c.Transfer(i%c.VCs(), i%2, Direction(i%2), at, 128, stats.RegularRequest)
	}
}
