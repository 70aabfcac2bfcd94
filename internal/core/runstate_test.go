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
// reproduces. One cell per run variant covers what default reports cannot
// see: a recycled state after a non-default host link, XPoint wear read
// back after the scrub, and a probe of a component the platform lacks.
func TestPooledRunsByteIdentical(t *testing.T) {
	type cell struct {
		p config.Platform
		m config.MemMode
		w config.Workload
		v Variant
		// knob, when set, turns on what the cell's probe counts.
		knob func(*config.Config)
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
		cell{p: config.Origin, m: config.Planar, w: table("backp"), v: SSDHost},
		cell{p: config.Origin, m: config.Planar, w: table("bfstopo"), v: InstantHost},
		cell{p: config.OhmBW, m: config.Planar, w: table("backp"), v: WearProbe},
		cell{p: config.OhmBW, m: config.Planar, w: table("lud"), v: MaxWearProbe},
		cell{p: config.OhmBW, m: config.Planar, w: table("sssp"), v: MergesProbe,
			knob: func(c *config.Config) { c.GPU.MSHREntries = 64 }},
		cell{p: config.OhmBW, m: config.Planar, w: table("pagerank"), v: BorrowsProbe,
			knob: func(c *config.Config) { c.Optical.DynamicDivision = true }},
		cell{p: config.Hetero, m: config.Planar, w: table("pagerank"), v: BorrowsProbe},
		cell{p: config.OhmBase, m: config.Planar, w: table("bfstopo"), v: Phased(4)},
	)
	seed := time.Now().UnixNano()
	t.Logf("shuffle seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, c := range cells {
		cfg := fastCfg(c.p, c.m)
		if c.knob != nil {
			c.knob(&cfg)
		}
		label := c.p.String() + "/" + c.m.String() + "/" + c.w.Name + "#" + string(c.v)
		run := func(dst *RunState) []byte {
			rep, _, err := Run(dst, cfg, c.w, c.v)
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

// TestPooledHostLinkRecycling pins an adjacency the shuffled grid above
// only sometimes draws: a default Origin cell built into a state whose
// previous cell staged over the SSD or the zero-cost link must stage over
// PCIe again, exactly as a new state does.
func TestPooledHostLinkRecycling(t *testing.T) {
	w, _ := config.WorkloadByName("backp")
	cfg := fastCfg(config.Origin, config.Planar)
	report := func(st *RunState, v Variant) []byte {
		t.Helper()
		rep, _, err := Run(st, cfg, w, v)
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := report(nil, DefaultRun)
	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, v := range []Variant{SSDHost, InstantHost} {
		report(st, v)
		if got := report(st, DefaultRun); !bytes.Equal(got, fresh) {
			t.Errorf("default Origin cell after a %q cell diverges from a new state\nnew:      %s\nrecycled: %s", v, fresh, got)
		}
	}
}
