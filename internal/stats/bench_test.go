package stats

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkAddEnergyHandle is the pre-interned hot-counter path: no string
// hashing, 0 allocs/op.
func BenchmarkAddEnergyHandle(b *testing.B) {
	c := NewCollector()
	h := c.InternEnergy("opti-network")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddEnergyH(h, 0.2)
	}
}

func BenchmarkLatencyDistAdd(b *testing.B) {
	var d LatencyDist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Add(sim.Time(1000 + i%100000))
	}
}
