package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/twin"
)

// fastCfg shrinks the instruction budget so full-system tests stay quick.
func fastCfg(p config.Platform, m config.MemMode) config.Config {
	c := config.Default(p, m)
	c.MaxInstructions = 1500
	return c
}

func runFast(t *testing.T, p config.Platform, m config.MemMode, w string) stats.Report {
	t.Helper()
	return runCfg(t, fastCfg(p, m), w)
}

func runCfg(t *testing.T, cfg config.Config, w string) stats.Report {
	t.Helper()
	sys, err := NewSystemIn(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	cfg.GPU.MemCtrls = 0
	if _, err := NewSystemIn(nil, cfg); err == nil {
		t.Fatal("accepted invalid config")
	}
	if _, _, err := Run(nil, cfg, config.Workloads()[0], DefaultRun); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

func TestRunWorkloadUnknownName(t *testing.T) {
	sys, err := NewSystemIn(nil, fastCfg(config.OhmBase, config.Planar))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload("nope"); err == nil {
		t.Fatal("accepted unknown workload")
	}
}

func TestAllPlatformsRunEndToEnd(t *testing.T) {
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			rep := runFast(t, p, m, "bfstopo")
			if rep.Instructions == 0 || rep.Elapsed <= 0 || rep.IPC <= 0 {
				t.Errorf("%s/%s: degenerate report %+v", p, m, rep)
			}
			if rep.MemRequests == 0 {
				t.Errorf("%s/%s: no memory requests reached the controller", p, m)
			}
			if rep.TotalEnergyPJ() <= 0 {
				t.Errorf("%s/%s: no energy accounted", p, m)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runFast(t, config.OhmWOM, config.Planar, "sssp")
	b := runFast(t, config.OhmWOM, config.Planar, "sssp")
	if a.Elapsed != b.Elapsed || a.Instructions != b.Instructions ||
		a.MemRequests != b.MemRequests || a.Migrations != b.Migrations {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestOracleBeatsHeterogeneous(t *testing.T) {
	// DRAM delivers up to 6x XPoint throughput: Oracle must outperform every
	// heterogeneous platform (Section VI-A).
	oracle := runFast(t, config.Oracle, config.Planar, "pagerank")
	base := runFast(t, config.OhmBase, config.Planar, "pagerank")
	if oracle.IPC <= base.IPC {
		t.Fatalf("Oracle IPC %.3f must exceed Ohm-base %.3f", oracle.IPC, base.IPC)
	}
	if oracle.Migrations != 0 {
		t.Fatal("Oracle must not migrate")
	}
}

func TestOriginWorstOnBigFootprints(t *testing.T) {
	origin := runFast(t, config.Origin, config.Planar, "pagerank")
	hetero := runFast(t, config.Hetero, config.Planar, "pagerank")
	if origin.IPC >= hetero.IPC {
		t.Fatalf("Origin IPC %.3f should trail Hetero %.3f on oversubscribed footprints",
			origin.IPC, hetero.IPC)
	}
}

func TestMigrationMachineryOrdering(t *testing.T) {
	// The paper's headline ordering in planar mode:
	// Ohm-base <= Auto-rw <= Ohm-WOM <= Ohm-BW <= Oracle (IPC).
	ipc := map[config.Platform]float64{}
	for _, p := range []config.Platform{config.OhmBase, config.AutoRW, config.OhmWOM, config.OhmBW, config.Oracle} {
		ipc[p] = runFast(t, p, config.Planar, "pagerank").IPC
	}
	if !(ipc[config.AutoRW] >= ipc[config.OhmBase]) {
		t.Errorf("Auto-rw (%.3f) must not trail Ohm-base (%.3f)", ipc[config.AutoRW], ipc[config.OhmBase])
	}
	if !(ipc[config.OhmWOM] >= ipc[config.AutoRW]) {
		t.Errorf("Ohm-WOM (%.3f) must not trail Auto-rw (%.3f)", ipc[config.OhmWOM], ipc[config.AutoRW])
	}
	if !(ipc[config.OhmBW] >= ipc[config.OhmWOM]*0.99) {
		t.Errorf("Ohm-BW (%.3f) must not trail Ohm-WOM (%.3f)", ipc[config.OhmBW], ipc[config.OhmWOM])
	}
	if !(ipc[config.Oracle] >= ipc[config.OhmBW]) {
		t.Errorf("Oracle (%.3f) must dominate Ohm-BW (%.3f)", ipc[config.Oracle], ipc[config.OhmBW])
	}
}

func TestDualRoutesReduceCopyFraction(t *testing.T) {
	base := runFast(t, config.OhmBase, config.Planar, "pagerank")
	wom := runFast(t, config.OhmWOM, config.Planar, "pagerank")
	if base.CopyFraction == 0 {
		t.Fatal("baseline shows no migration traffic; workload too small")
	}
	if wom.CopyFraction >= base.CopyFraction {
		t.Fatalf("dual routes did not reduce channel copy fraction: %.3f vs %.3f",
			wom.CopyFraction, base.CopyFraction)
	}
}

func TestTwoLevelMigrationEliminated(t *testing.T) {
	wom := runFast(t, config.OhmWOM, config.TwoLevel, "bfsdata")
	if wom.CopyFraction > 1e-9 {
		t.Fatalf("Ohm-WOM two-level copy fraction = %.4f, want 0 (Figure 18)", wom.CopyFraction)
	}
	base := runFast(t, config.OhmBase, config.TwoLevel, "bfsdata")
	if base.CopyFraction <= 0 {
		t.Fatal("two-level baseline must show migration traffic")
	}
}

// TestRun runs a Table II definition and an inline one through Run, on a
// new state and on a recycled one. A Table II definition must report
// exactly what running its name on a System does, and every run must time
// its build and event loop.
func TestRun(t *testing.T) {
	lud, ok := config.WorkloadByName("lud")
	if !ok {
		t.Fatal("lud missing")
	}
	inline := config.Workload{Name: "run-inline", APKI: 80, ReadRatio: 0.6, FootprintScale: 1.2, HotSkew: 0.9}
	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, m := range config.AllModes() {
		cfg := fastCfg(config.OhmBase, m)
		byName, err := json.Marshal(runCfg(t, cfg, "lud"))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []config.Workload{lud, inline} {
			for _, s := range []*RunState{nil, st} {
				rep, ph, err := Run(s, cfg, w, DefaultRun)
				if err != nil || rep.Instructions == 0 {
					t.Fatalf("%s/%s: Run: %v %+v", m, w.Name, err, rep)
				}
				if ph.PlatformBuild <= 0 || ph.EventLoop <= 0 {
					t.Errorf("%s/%s: phases not timed: %+v", m, w.Name, ph)
				}
				if w != lud {
					continue
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, byName) {
					t.Errorf("%s: Run(lud) diverges from RunWorkload(\"lud\")\nrun:  %s\nname: %s", m, got, byName)
				}
			}
		}
	}
}

func TestExtraMetricsPopulated(t *testing.T) {
	rep := runFast(t, config.OhmBase, config.Planar, "backp")
	if _, ok := rep.Extra["l1-hit-rate"]; !ok {
		t.Fatal("l1-hit-rate missing from report extras")
	}
	if _, ok := rep.Extra["l2-hit-rate"]; !ok {
		t.Fatal("l2-hit-rate missing from report extras")
	}
}

func TestHeteroTracksOhmBase(t *testing.T) {
	// Section VI-A: with the default bandwidth-equivalent channels, Hetero
	// and Ohm-base perform within a few percent of each other.
	for _, m := range config.AllModes() {
		het := runFast(t, config.Hetero, m, "gctopo")
		base := runFast(t, config.OhmBase, m, "gctopo")
		ratio := het.IPC / base.IPC
		if ratio < 0.85 || ratio > 1.18 {
			t.Errorf("%s: Hetero/Ohm-base IPC ratio = %.3f, want ~1", m, ratio)
		}
	}
}

func TestSameWorkAllPlatforms(t *testing.T) {
	// Every platform must execute the identical instruction stream: the
	// instruction count is platform-invariant even though timing differs.
	var want uint64
	for _, p := range config.AllPlatforms() {
		rep := runFast(t, p, config.Planar, "FDTD")
		if want == 0 {
			want = rep.Instructions
		} else if rep.Instructions != want {
			t.Errorf("%s executed %d instructions, others %d", p, rep.Instructions, want)
		}
	}
}

func TestEnergyAccountingConsistent(t *testing.T) {
	rep := runFast(t, config.OhmBW, config.Planar, "GRAMS")
	sum := 0.0
	for _, v := range rep.EnergyPJ {
		if v < 0 {
			t.Fatalf("negative energy component: %v", rep.EnergyPJ)
		}
		sum += v
	}
	if sum != rep.TotalEnergyPJ() {
		t.Fatal("energy total mismatch")
	}
	if rep.EnergyPJ["elec-channel"] != 0 {
		t.Fatal("optical platform charged electrical channel energy")
	}
}

func TestWaveguidesImproveOhmBase(t *testing.T) {
	cfg1 := fastCfg(config.OhmBase, config.Planar)
	cfg8 := fastCfg(config.OhmBase, config.Planar)
	cfg8.Optical.Waveguides = 8
	r1 := runCfg(t, cfg1, "betw")
	r8 := runCfg(t, cfg8, "betw")
	if r8.IPC < r1.IPC {
		t.Fatalf("8 waveguides (%.3f) should not trail 1 (%.3f)", r8.IPC, r1.IPC)
	}
}

func TestMigrationsOnlyOnHeterogeneous(t *testing.T) {
	for _, p := range []config.Platform{config.Origin, config.Oracle} {
		rep := runFast(t, p, config.Planar, "sssp")
		if rep.Migrations != 0 || rep.CopyBytes != 0 {
			t.Errorf("%s: migrations=%d copyBytes=%d, want 0", p, rep.Migrations, rep.CopyBytes)
		}
	}
}

// TestSmallOverridesNeverPanic walks every numeric override path at -1,
// 0, 1 and 3 on every platform in both modes. Each config must fail Set
// or Validate, or run to a report with no error: these values reach
// ohmserve from a submitted spec, where a config that validates is
// accepted, and nothing on the cell path recovers a panic. 3 is below the
// default six memory controllers, which sizes several per-controller
// tables.
func TestSmallOverridesNeverPanic(t *testing.T) {
	w, ok := config.WorkloadByName("lud")
	if !ok {
		t.Fatal("lud missing")
	}
	st := new(RunState)
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			for _, op := range config.OverridePaths() {
				if op.Type == "bool" {
					continue
				}
				for _, v := range []int{-1, 0, 1, 3} {
					cfg := config.Default(p, m)
					cfg.MaxInstructions = 200
					if cfg.Set(op.Path, v) != nil || cfg.Validate() != nil {
						continue
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s/%s %s=%d validates but panics: %v", p, m, op.Path, v, r)
								st = new(RunState) // the panic left st half rebuilt
							}
						}()
						if _, _, err := Run(st, cfg, w, DefaultRun); err != nil {
							t.Errorf("%s/%s %s=%d validates but fails to run: %v", p, m, op.Path, v, err)
						}
					}()
				}
			}
		}
	}
}

// TestMemCtrlsAloneSizeTheChannels: gpu.mem_ctrls is the one count of
// per-controller channel resources (the optical virtual channels and
// laser sources, the electrical lanes, the twin's queues), so setting it
// alone validates on every platform in both modes, runs the simulator to
// a report, and gives a finite twin estimate.
func TestMemCtrlsAloneSizeTheChannels(t *testing.T) {
	w, ok := config.WorkloadByName("lud")
	if !ok {
		t.Fatal("lud missing")
	}
	st := new(RunState)
	for _, p := range config.AllPlatforms() {
		for _, m := range config.AllModes() {
			for _, n := range []int{1, 3, 12} {
				cfg := config.Default(p, m)
				cfg.MaxInstructions = 300
				if err := cfg.Set("gpu.mem_ctrls", n); err != nil {
					t.Fatal(err)
				}
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s/%s gpu.mem_ctrls=%d: %v", p, m, n, err)
					continue
				}
				rep, _, err := Run(st, cfg, w, DefaultRun)
				if err != nil {
					t.Errorf("%s/%s gpu.mem_ctrls=%d: %v", p, m, n, err)
				} else if rep.Elapsed <= 0 || rep.MemRequests == 0 {
					t.Errorf("%s/%s gpu.mem_ctrls=%d: simulated %s for %d memory requests", p, m, n, rep.Elapsed, rep.MemRequests)
				}
				if err := finiteEstimate(twin.Estimate(&cfg, w)); err != nil {
					t.Errorf("%s/%s gpu.mem_ctrls=%d: twin %v", p, m, n, err)
				}
			}
		}
	}
}

// finiteEstimate reports the first twin output that is not a finite,
// non-negative number, or a non-positive elapsed time or IPC.
func finiteEstimate(r stats.Report) error {
	if r.Elapsed <= 0 || !(r.IPC > 0) || math.IsInf(r.IPC, 0) {
		return fmt.Errorf("elapsed %s, IPC %v", r.Elapsed, r.IPC)
	}
	if r.MeanLatency < 0 || r.P99Latency < 0 {
		return fmt.Errorf("latency mean %s, p99 %s", r.MeanLatency, r.P99Latency)
	}
	vals := map[string]float64{"copy fraction": r.CopyFraction}
	for k, v := range r.EnergyPJ {
		vals["energy "+k] = v
	}
	for k, v := range r.Extra {
		vals[k] = v
	}
	for k, v := range vals {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %v", k, v)
		}
	}
	return nil
}

// TestCostBoundedAtCaps: a config that validates costs time proportional
// to its trace budget, with a constant that no config value scales. Each
// L2 lookup scans the MSHR table and each cache access shifts its set, so
// a short cell at each cap Validate puts on those must build and simulate
// within a generous multiple of the default cell's time, best of three. A
// cap that lets per-access cost grow with its value fails here.
func TestCostBoundedAtCaps(t *testing.T) {
	const bound = 8
	w, ok := config.WorkloadByName("pagerank")
	if !ok {
		t.Fatal("pagerank missing")
	}
	st := new(RunState)
	cost := func(knob func(*config.Config)) time.Duration {
		t.Helper()
		cfg := config.Default(config.OhmBW, config.Planar)
		cfg.MaxInstructions = 4000
		knob(&cfg)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			// The trace is generated once and shared; only the build and
			// the event loop count.
			_, ph, err := Run(st, cfg, w, DefaultRun)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, ph.PlatformBuild+ph.EventLoop)
		}
		return best
	}
	base := cost(func(*config.Config) {})
	for _, c := range []struct {
		path string
		knob func(*config.Config)
	}{
		{"gpu.mshr_entries", func(c *config.Config) { c.GPU.MSHREntries = config.MaxMSHREntries }},
		{"gpu.l2_ways", func(c *config.Config) { c.GPU.L2Ways = config.MaxCacheWays }},
		{"gpu.l1_ways", func(c *config.Config) {
			c.GPU.L1Ways = config.MaxCacheWays
			c.GPU.L1SizeBytes = config.MaxCacheWays * c.GPU.LineBytes
		}},
	} {
		got := cost(c.knob)
		t.Logf("%s at its cap: %s, default %s (%.2fx)", c.path, got, base, float64(got)/float64(base))
		if got > bound*base {
			t.Errorf("%s at its cap took %s, beyond %dx the default cell's %s", c.path, got, bound, base)
		}
	}
}
