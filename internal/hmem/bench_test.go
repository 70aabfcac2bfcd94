package hmem

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkAccessPlanar is one planar-mode access on an Ohm-WOM controller
// in steady state. Two pages of each of four groups per controller take
// turns, a request every 100 ns, so pages keep getting hot and swapping
// into their group's DRAM slot past its cooldown: the op mixes XPoint
// reads, DRAM hits, heat counting, conflict checks and swaps. The engine
// clock follows the request time, as in a run, so gap tables retire the
// windows it passes. Expected steady state: 0 allocs/op.
func BenchmarkAccessPlanar(b *testing.B) {
	cfg := config.Default(config.OhmWOM, config.Planar)
	pools := new(sim.Pools)
	c, err := NewIn(nil, pools, &cfg, stats.NewCollector(), nil)
	if err != nil {
		b.Fatal(err)
	}
	nMC, pb := int64(len(c.mcs)), c.pageBytes
	nGroups := c.mcs[0].planar.nGroups
	var addrs []uint64
	for _, page := range []int64{1, 2, 3, 4, 1 + nGroups, 2 + nGroups, 3 + nGroups, 4 + nGroups} {
		for mc := int64(0); mc < nMC; mc++ {
			addrs = append(addrs, uint64((page*nMC+mc)*pb))
		}
	}
	eng := pools.Engine()
	eng.Start(1)
	eng.Next()
	step := func(i int) {
		at := eng.Now() + 100*sim.Nanosecond
		eng.Reschedule(at)
		eng.Next()
		c.Access(at, addrs[i%len(addrs)], false)
	}
	swaps := func() (n uint64) {
		for _, bk := range c.mcs {
			n += bk.planar.Swaps
		}
		return n
	}
	// Warm up until the planar arrays and the gap tables have grown.
	for i := 0; i < 1000*len(addrs); i++ {
		step(i)
	}
	before := swaps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(swaps()-before)/float64(b.N), "swaps/op")
	if b.N >= 10*len(addrs) && swaps() == before {
		b.Fatalf("%d accesses swapped no page", b.N)
	}
}
