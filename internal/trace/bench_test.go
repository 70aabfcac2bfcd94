package trace

import (
	"testing"

	"repro/internal/config"
)

// BenchmarkGenerate is the trace-generation cost per cell once the page
// table is cached: the trace's page permutation, one draw per instruction
// and one 16-byte record per memory instruction, all in one backing array.
func BenchmarkGenerate(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, _ := config.WorkloadByName("bfsdata")
	Generate(w, &cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(w, &cfg)
	}
}

// BenchmarkGenerateColdTable is BenchmarkGenerate with an empty page-table
// cache: each trace also builds the Zipf CDF and guide table over
// bfsdata's 8,192 pages, the cost the first trace of a (skew, pages) pays.
func BenchmarkGenerateColdTable(b *testing.B) {
	defer ResetCache()
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, _ := config.WorkloadByName("bfsdata")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetCache()
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
