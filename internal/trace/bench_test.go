package trace

import (
	"testing"

	"repro/internal/config"
)

// BenchmarkGenerate is the cold trace-generation cost per cell: the shared
// page permutation and Zipf CDF, one draw per instruction and one 16-byte
// record per memory instruction, all in one backing array.
func BenchmarkGenerate(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, _ := config.WorkloadByName("bfsdata")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(w, &cfg)
	}
}

// BenchmarkCachedWarm is the registry hit path a sweep pays per repeat
// cell: one lock + map probe.
func BenchmarkCachedWarm(b *testing.B) {
	ResetCache()
	defer ResetCache()
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, _ := config.WorkloadByName("bfsdata")
	Cached(w, &cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cached(w, &cfg)
	}
}
