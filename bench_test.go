// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation section as testing.B benchmarks — one benchmark per
// artefact, per DESIGN.md's experiment index. The benchmarks use a reduced
// workload subset so `go test -bench=.` completes in minutes; run cmd/ohmfig
// without -quick for the full sweep.
package main

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
)

// benchOpt bounds benchmark cost: a dense and a graph workload, short
// traces. The shapes (who wins, by what factor) match the full runs.
var benchOpt = experiments.Options{
	Workloads:       []string{"lud", "bfsdata"},
	MaxInstructions: 2000,
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3a(benchOpt); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig3b(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig19(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20a(b *testing.B) {
	small := experiments.Options{Workloads: []string{"bfsdata"}, MaxInstructions: 1000}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig20a(small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig20b(); len(r.Rows) == 0 {
			b.Fatal("empty BER table")
		}
	}
}

func BenchmarkFig21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig21(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(benchOpt); len(r.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table3(); len(r.Estimates) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSingleRun measures the cost of one end-to-end platform
// simulation — the unit every experiment above is built from.
func BenchmarkSingleRun(b *testing.B) {
	w, ok := config.WorkloadByName("bfsdata")
	if !ok {
		b.Fatal("bfsdata missing")
	}
	for _, pm := range []struct {
		p config.Platform
		m config.MemMode
	}{
		{config.OhmBase, config.Planar},
		{config.OhmBW, config.Planar},
		{config.OhmBW, config.TwoLevel},
		{config.Oracle, config.Planar},
	} {
		pm := pm
		b.Run(pm.p.String()+"/"+pm.m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default(pm.p, pm.m)
				cfg.MaxInstructions = 2000
				if _, _, err := core.Run(nil, cfg, w, core.DefaultRun); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchSweep measures the sweep engine itself on a 2x1x2 grid:
// serial vs full worker pool, and a warm content-addressed cache. The
// serial/parallel ratio approaches the core count on multi-core hosts; the
// warm-cache run costs only hashing and JSON decode.
func BenchmarkBatchSweep(b *testing.B) {
	spec := batch.SweepSpec{
		Platforms:       []config.Platform{config.OhmBase, config.OhmBW},
		Modes:           []config.MemMode{config.Planar},
		Workloads:       []string{"lud", "bfsdata"},
		MaxInstructions: 2000,
	}
	b.Run("serial", func(b *testing.B) {
		r := batch.NewRunner(1, nil)
		for i := 0; i < b.N; i++ {
			if _, err := r.RunSpec(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		r := batch.NewRunner(0, nil)
		for i := 0; i < b.N; i++ {
			if _, err := r.RunSpec(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		r := batch.NewRunner(0, batch.NewMemCache())
		if _, err := r.RunSpec(spec); err != nil { // prime
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.RunSpec(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation benches cover the design choices DESIGN.md calls out.

func BenchmarkAblationHotThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHotThreshold(benchOpt, "bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStartGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStartGap(benchOpt, "bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMSHR(benchOpt, "bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationChannelDivision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationChannelDivision(benchOpt, "bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPhases(benchOpt, "bfsdata"); err != nil {
			b.Fatal(err)
		}
	}
}
