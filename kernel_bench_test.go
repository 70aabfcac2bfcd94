// Root kernel benchmarks: the steady-state fire->reschedule loop of the
// discrete-event engine, plus cold- and warm-cell end-to-end runs.
// scripts/bench.sh records them into BENCH_<n>.json and CI runs a short
// -benchtime=100x smoke pass so they cannot bit-rot.
package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkKernelScheduleID measures the scheduler's hot path: fire the
// earliest of 128 slots, one per resident warp, and reschedule it. Slot i's
// k-th event waits 1+(i+k)%97 ps after the previous one. Expected steady
// state: 0 allocs/op.
func BenchmarkKernelScheduleID(b *testing.B) {
	const population = 128
	eng := sim.NewEngine()
	eng.Start(population)
	var arg [population]uint64
	for i := range arg {
		arg[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := eng.Next()
		eng.Reschedule(eng.Now() + sim.Time(1+arg[s]%97))
		arg[s]++
	}
}

// BenchmarkKernelColdCell is one full cold simulation — fresh system, fresh
// trace (the registry is bypassed via Generate) — the unit cost every sweep
// pays per uncached cell.
func BenchmarkKernelColdCell(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, ok := config.WorkloadByName("bfsdata")
	if !ok {
		b.Fatal("bfsdata missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(w, &cfg)
		sys, err := core.NewSystemIn(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.RunTrace(tr)
	}
}

// BenchmarkKernelWarmCell is the same cell with the shared trace registry
// warm — the steady-state unit cost of a large sweep.
func BenchmarkKernelWarmCell(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystemIn(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunWorkload("bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}
