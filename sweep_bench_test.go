package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
)

// sweepBenchCells is the small real grid behind BenchmarkSweepCold/Warm:
// four platforms spanning all three channel/migration designs, both memory
// modes and two Table II workloads — 16 cells that together exercise the
// optical and electrical links, planar swap and two-level fill paths, and
// the Origin host path, i.e. every component the run-state pool recycles.
func sweepBenchCells(b *testing.B) []batch.Cell {
	b.Helper()
	spec := batch.SweepSpec{
		Platforms:       []config.Platform{config.Origin, config.Hetero, config.OhmBase, config.OhmBW},
		Modes:           []config.MemMode{config.Planar, config.TwoLevel},
		Workloads:       []string{"lud", "bfsdata"},
		MaxInstructions: 2000,
	}
	cells, err := spec.Cells()
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

// reportSweepMetrics emits the two numbers the benchcheck gate watches:
// sweep throughput in cells/sec over the timed loop's b.N grid runs, and
// heap allocations per cell over the grid runs between m0 and m1 (from
// the runtime's allocation counter, so it covers everything the grid does
// — construction, event loop, reporting).
func reportSweepMetrics(b *testing.B, cells int, elapsed time.Duration, allocRuns int, m0, m1 *runtime.MemStats) {
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*cells)/elapsed.Seconds(), "cells/sec")
	}
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(allocRuns*cells), "allocs/cell")
}

// BenchmarkSweepCold runs the grid with no result cache: every cell
// simulates. This is the number the run-state pool moves — after the first
// grid primes the trace registry and the pool, each cell rebuilds its
// platform into recycled arrays instead of reallocating them. Serial
// (Workers=1) so cells/sec and allocs/cell are stable across hosts.
//
// allocs/cell comes from one more, untimed grid run with the GC off: a GC
// during the timed loop empties the run-state sync.Pool and the next cell
// rebuilds from scratch, which would make the gated count depend on when
// the GC happened to run.
func BenchmarkSweepCold(b *testing.B) {
	cells := sweepBenchCells(b)
	r := batch.NewRunner(1, nil)
	if _, err := r.Run(cells); err != nil { // prime traces + state pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cells); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := r.Run(cells); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	reportSweepMetrics(b, len(cells), elapsed, 1, &m0, &m1)
}

// BenchmarkSweepWarm runs the same grid against a warm content-addressed
// cache: no cell simulates, so this measures the sweep engine's fixed
// overhead (key hashing, cache decode, scheduling).
func BenchmarkSweepWarm(b *testing.B) {
	cells := sweepBenchCells(b)
	r := batch.NewRunner(1, batch.NewMemCache())
	if _, err := r.Run(cells); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cells); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	reportSweepMetrics(b, len(cells), elapsed, b.N, &m0, &m1)
}

// coldTraceSeed hands BenchmarkSweepColdTraces seeds no earlier run in the
// process has used, so the trace registry never holds a grid's traces.
var coldTraceSeed atomic.Uint64

// BenchmarkSweepColdTraces runs perfbench des-compute's grid shape: Oracle,
// planar, GRAMS, FDTD, backp and lud at 1,000 instructions per warp and two
// seeds, so each of the 8 cells reads a trace of its own. Every grid run
// takes fresh seeds, so it generates its 8 traces inside the timed region
// as a cold sweep does (BenchmarkSweepCold primes its traces and cannot see
// generation). One worker and no result cache, as in des-compute. The
// sub-benchmarks fix GOMAXPROCS at 1 and 2: at 1 no core is spare, so the
// sweep generates each trace in the cell that reads it; at 2 it generates
// the next cell's trace beside the simulating core.
func BenchmarkSweepColdTraces(b *testing.B) {
	grid := func(b *testing.B) []batch.Cell {
		seed := coldTraceSeed.Add(2)
		cells, err := batch.SweepSpec{
			Platforms:       []config.Platform{config.Oracle},
			Modes:           []config.MemMode{config.Planar},
			Workloads:       []string{"GRAMS", "FDTD", "backp", "lud"},
			MaxInstructions: 1000,
			Overrides:       batch.Overrides{"seed": batch.Axis{float64(seed), float64(seed + 1)}},
		}.Cells()
		if err != nil {
			b.Fatal(err)
		}
		return cells
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r := batch.NewRunner(1, nil)
			if _, err := r.Run(grid(b)); err != nil { // prime the state pool and page tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(grid(b)); err != nil {
					b.Fatal(err)
				}
			}
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(b.N*8)/elapsed.Seconds(), "cells/sec")
			}
		})
	}
}
