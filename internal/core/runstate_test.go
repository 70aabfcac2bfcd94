package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
)

// TestPooledRunsByteIdentical is the pooling correctness gate: a shuffled
// grid of cells runs twice, once into a new RunState per cell (what a nil
// state means) and once into a single RunState recycled across the grid,
// and every report — including the Extra map — must be byte-identical
// between the two. The shuffle makes each CI run exercise a different
// platform/mode adjacency (the spare-stash and scrub paths depend on what
// the previous cell left behind); the seed is logged so a failure
// reproduces.
func TestPooledRunsByteIdentical(t *testing.T) {
	type cell struct {
		p config.Platform
		m config.MemMode
		w config.Workload
	}
	table := func(name string) config.Workload {
		w, ok := config.WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return w
	}
	custom := config.Workload{
		Name: "pooled-custom", APKI: 60, ReadRatio: 0.7,
		FootprintScale: 1.5, HotSkew: 0.8,
	}
	var cells []cell
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			cells = append(cells, cell{p: p, m: m, w: table("bfstopo")})
		}
	}
	cells = append(cells,
		cell{p: config.OhmWOM, m: config.Planar, w: table("pagerank")},
		cell{p: config.OhmBW, m: config.TwoLevel, w: table("sssp")},
		cell{p: config.Origin, m: config.Planar, w: table("backp")},
		cell{p: config.Hetero, m: config.TwoLevel, w: table("lud")},
		cell{p: config.OhmBase, m: config.Planar, w: custom},
	)
	seed := time.Now().UnixNano()
	t.Logf("shuffle seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, c := range cells {
		cfg := fastCfg(c.p, c.m)
		label := c.p.String() + "/" + c.m.String() + "/" + c.w.Name
		run := func(dst *RunState) []byte {
			rep, _, err := Run(dst, cfg, c.w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		fresh, pooled := run(nil), run(st)
		if !bytes.Equal(fresh, pooled) {
			t.Errorf("%s: recycled-state report diverges from new-state report\nnew:      %s\nrecycled: %s",
				label, fresh, pooled)
		}
	}
}

// TestPooledRebuildAllocs pins down what the pool buys: once a RunState
// has run a configuration, rebuilding the same platform into it allocates
// a small constant (the System value, the link header and per-run handles)
// instead of the full device-array footprint a cold build pays.
func TestPooledRebuildAllocs(t *testing.T) {
	cfg := fastCfg(config.OhmWOM, config.Planar)
	st := AcquireRunState()
	defer ReleaseRunState(st)
	if _, err := NewSystemIn(st, cfg); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := NewSystemIn(st, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// A cold build allocates thousands of objects (wear arrays, cache tag
	// arrays, per-bank resources, stats maps). The warm bound is the small
	// fixed overhead of assembling a System around recycled state —
	// measured at 3 objects (System value, link wrapper, escape of the
	// config copy); 8 leaves slack for toolchain drift without letting a
	// real regression hide.
	if warm > 8 {
		t.Fatalf("warm NewSystemIn allocates %.0f objects per rebuild, want <= 8", warm)
	}
}
