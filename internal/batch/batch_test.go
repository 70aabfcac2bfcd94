package batch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mustCells expands a spec, failing the test on spec errors.
func mustCells(t *testing.T, spec SweepSpec) []Cell {
	t.Helper()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// fakeRun is a deterministic, instant RunFunc for engine-mechanics tests.
func fakeRun(cfg config.Config, workload string) (stats.Report, error) {
	return stats.Report{
		IPC:         float64(cfg.Platform) + float64(len(workload)),
		Elapsed:     sim.Time(cfg.MaxInstructions) * sim.Nanosecond,
		MeanLatency: sim.Time(cfg.Optical.Waveguides) * sim.Microsecond,
		EnergyPJ:    map[string]float64{"laser": float64(cfg.Mode) + 1},
		Extra:       map[string]float64{},
	}, nil
}

func TestSpecCellsDeterministicOrder(t *testing.T) {
	spec := SweepSpec{
		Platforms:       []config.Platform{config.OhmBase, config.OhmBW},
		Modes:           []config.MemMode{config.Planar, config.TwoLevel},
		Workloads:       []string{"lud", "sssp"},
		Overrides:       Overrides{"optical.waveguides": {1, 4}},
		MaxInstructions: 500,
	}
	cells := mustCells(t, spec)
	if len(cells) != 2*2*2*2 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	// Modes outermost, then waveguides, platforms, workloads.
	want0 := "Ohm-base/planar/lud@optical.waveguides=1"
	if cells[0].String() != want0 {
		t.Fatalf("cells[0] = %s, want %s", cells[0], want0)
	}
	if cells[0].Config.Optical.Waveguides != 1 || cells[2].Config.Optical.Waveguides != 1 {
		t.Fatal("waveguide override misplaced")
	}
	if cells[4].Config.Optical.Waveguides != 4 {
		t.Fatalf("cells[4] waveguides = %d, want 4", cells[4].Config.Optical.Waveguides)
	}
	if cells[8].Config.Mode != config.TwoLevel {
		t.Fatalf("cells[8] mode = %s, want two-level", cells[8].Config.Mode)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cells[%d].Index = %d", i, c.Index)
		}
		if c.Config.MaxInstructions != 500 {
			t.Fatal("MaxInstructions override lost")
		}
	}
	// Expansion is itself deterministic.
	again := mustCells(t, spec)
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("two expansions of one spec differ")
	}
}

// TestCellLabelReadsConfig: a hand-built cell labels itself, in errors
// and in result rows, with the platform and mode of its config.
func TestCellLabelReadsConfig(t *testing.T) {
	c := Cell{Config: config.Default(config.OhmBase, config.TwoLevel), Exec: config.ExecAnalytical, Workload: "lud"}
	if got, want := c.String(), "Ohm-base/two-level+analytical/lud"; got != want {
		t.Fatalf("label = %s, want %s", got, want)
	}
	row := Rows([]Cell{c}, make([]stats.Report, 1))[0]
	if row.Platform != "Ohm-base" || row.Mode != "two-level+analytical" {
		t.Fatalf("row labels %s/%s, want Ohm-base/two-level+analytical", row.Platform, row.Mode)
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, []Cell{c}, make([]stats.Report, 1)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "\n0,Ohm-base,two-level+analytical,lud,") {
		t.Fatalf("CSV row does not carry the config's labels:\n%s", csv.String())
	}
}

func TestSpecDefaultsToFullPaperGrid(t *testing.T) {
	cells := mustCells(t, SweepSpec{})
	if len(cells) != 7*2*10 {
		t.Fatalf("default grid = %d cells, want 140", len(cells))
	}
	for _, c := range cells {
		if err := c.Config.Validate(); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := SweepSpec{
		Platforms:       []config.Platform{config.Origin, config.OhmWOM},
		Modes:           []config.MemMode{config.TwoLevel},
		Workloads:       []string{"pagerank"},
		Overrides:       Overrides{"optical.waveguides": {2.0, 8.0}},
		MaxInstructions: 1234,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip lost data:\n%+v\n%+v", spec, back)
	}
	if err := json.Unmarshal([]byte(`{"platforms":["nope"]}`), &back); err == nil {
		t.Fatal("accepted unknown platform name")
	}
}

func TestCellKeyDiscriminates(t *testing.T) {
	base := Cell{Config: config.Default(config.OhmBW, config.Planar), Workload: "lud"}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	same := base
	if k, _ := same.Key(); k != k0 {
		t.Fatal("identical cells hash differently")
	}
	workload := base
	workload.Workload = "sssp"
	variant := base
	variant.Variant = core.SSDHost
	knob := base
	knob.Config.Optical.Waveguides = 3
	instr := base
	instr.Config.MaxInstructions = 999
	seen := map[string]string{k0: "base"}
	for _, c := range []struct {
		name string
		cell Cell
	}{{"workload", workload}, {"variant", variant}, {"knob", knob}, {"instr", instr}} {
		k, err := c.cell.Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s collides with %s", c.name, prev)
		}
		seen[k] = c.name
	}
}

// runAll executes the spec with the given worker count and fake runner,
// returning the serialized results for byte-comparison.
func runAll(t *testing.T, workers int, cache Cache, run RunFunc, cells []Cell) []byte {
	t.Helper()
	r := &Runner{Workers: workers, Cache: cache, RunFn: run}
	reps, err := r.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	spec := SweepSpec{
		Platforms: []config.Platform{config.Origin, config.Hetero, config.OhmBW},
		Modes:     config.AllModes(),
		Workloads: []string{"lud", "sssp", "pagerank"},
		Overrides: Overrides{"optical.waveguides": {1, 2}},
	}
	cells := mustCells(t, spec)
	serial := runAll(t, 1, nil, fakeRun, cells)
	parallel := runAll(t, 8, nil, fakeRun, cells)
	if string(serial) != string(parallel) {
		t.Fatal("parallel sweep output differs from serial")
	}
	// And with a shared cache in the loop (parallel writes, then reads).
	cache := NewMemCache()
	first := runAll(t, 8, cache, fakeRun, cells)
	warm := runAll(t, 8, cache, fakeRun, cells)
	if string(first) != string(serial) || string(warm) != string(serial) {
		t.Fatal("cached results differ from uncached")
	}
}

// TestParallelMatchesSerialRealSim runs genuine simulations through both a
// serial and a parallel runner and requires byte-identical reports — the
// acceptance criterion that makes the worker pool safe to put under every
// figure driver. Origin is included deliberately: its host-spill path once
// picked eviction victims by map iteration order, which made repeated runs
// of one config diverge.
func TestParallelMatchesSerialRealSim(t *testing.T) {
	spec := SweepSpec{
		Platforms:       []config.Platform{config.Origin, config.OhmBase, config.OhmBW},
		Modes:           []config.MemMode{config.Planar},
		Workloads:       []string{"lud", "bfstopo"},
		MaxInstructions: 400,
	}
	cells := mustCells(t, spec)
	serial := runAll(t, 1, nil, nil, cells) // nil RunFn = core.Run
	parallel := runAll(t, 4, nil, nil, cells)
	if string(serial) != string(parallel) {
		t.Fatal("parallel real-sim sweep output differs from serial")
	}
	// Re-running the sweep in the same process must also be identical:
	// result caching assumes the simulator is a pure function of the
	// config, so any hidden global state is a correctness bug here.
	again := runAll(t, 4, nil, nil, cells)
	if string(serial) != string(again) {
		t.Fatal("re-running the sweep in-process changed results")
	}
}

func TestWarmCacheSkipsSimulation(t *testing.T) {
	var calls atomic.Int64
	counting := func(cfg config.Config, w string) (stats.Report, error) {
		calls.Add(1)
		return fakeRun(cfg, w)
	}
	spec := SweepSpec{
		Platforms: []config.Platform{config.OhmBase, config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud", "sssp"},
	}
	cache, err := NewDiskCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}

	cold := &Runner{Workers: 4, Cache: cache, RunFn: counting}
	if _, err := cold.Run(mustCells(t, spec)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("cold run simulated %d cells, want 4", got)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("cold stats = %+v", st)
	}

	warm := &Runner{Workers: 4, Cache: cache, RunFn: counting}
	reps, err := warm.Run(mustCells(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("warm run re-simulated: %d total calls, want 4", got)
	}
	if st := warm.Stats(); st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if reps[0].EnergyPJ["laser"] != float64(config.Planar)+1 {
		t.Fatal("cached report lost its energy map")
	}
}

// TestVariantCellsCache: a variant cell is an ordinary cached cell keyed
// apart from its default sibling, and a fake RunFn never stands in for it
// (RunFn cannot see the variant), so the variant runs core.Run once and
// answers from the cache after that.
func TestVariantCellsCache(t *testing.T) {
	var calls atomic.Int64
	counting := func(cfg config.Config, w string) (stats.Report, error) {
		calls.Add(1)
		return fakeRun(cfg, w)
	}
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 300
	plain := Cell{Config: cfg, Workload: "lud"}
	probe := plain
	probe.Variant = core.MergesProbe

	r := &Runner{Workers: 1, Cache: NewMemCache(), RunFn: counting}
	var reps []stats.Report
	for i := 0; i < 2; i++ {
		var err error
		if reps, err = r.Run([]Cell{plain, probe}); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("RunFn calls = %d, want 1 (the plain cell only)", got)
	}
	if st := r.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses then 2 hits", st)
	}
	if _, ok := reps[1].Extra[core.ProbePrefix+"merges"]; !ok {
		t.Fatalf("variant cell did not run its probe: %v", reps[1].Extra)
	}
}

func TestRunReportsLowestFailingCell(t *testing.T) {
	boom := errors.New("boom")
	run := func(cfg config.Config, w string) (stats.Report, error) {
		if cfg.Platform == config.Hetero {
			return stats.Report{}, boom
		}
		return fakeRun(cfg, w)
	}
	cells := mustCells(t, SweepSpec{
		Platforms: []config.Platform{config.Origin, config.Hetero, config.OhmBW},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud", "sssp"},
	})
	r := &Runner{Workers: 4, RunFn: run}
	_, err := r.Run(cells)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	want := fmt.Sprintf("cell 2 (%s)", cells[2])
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("err %q does not name the lowest failing cell %q", got, want)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	cache, err := NewDiskCache(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	rep := stats.Report{
		IPC:      3.25,
		Elapsed:  42 * sim.Microsecond,
		EnergyPJ: map[string]float64{"dram": 1.5, "laser": 2.25},
		Extra:    map[string]float64{"l1-hit-rate": 0.5},
	}
	key, err := Cell{Config: config.Default(config.Origin, config.Planar), Workload: "lud"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := cache.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	back, ok := cache.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed report:\n%+v\n%+v", rep, back)
	}
}

// TestDiskCacheCorruptedEntryIsMissAndRewritten covers crash/partial-write
// recovery: truncated or garbage cache files must behave as misses — the
// runner re-simulates the cell and rewrites a good entry — never crash.
func TestDiskCacheCorruptedEntryIsMissAndRewritten(t *testing.T) {
	cache, err := NewDiskCache(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Config: config.Default(config.OhmBW, config.Planar), Workload: "lud"}
	key, err := cell.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, garbage := range [][]byte{nil, []byte("{"), []byte(`{"IPC": "not a number"}`), []byte("\x00\xff\x17 binary junk")} {
		p := cache.path(key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(key); ok {
			t.Fatalf("corrupt entry %q served as a hit", garbage)
		}

		var calls atomic.Int64
		counting := func(cfg config.Config, w string) (stats.Report, error) {
			calls.Add(1)
			return fakeRun(cfg, w)
		}
		r := &Runner{Workers: 1, Cache: cache, RunFn: counting}
		reps, err := r.Run([]Cell{cell})
		if err != nil {
			t.Fatalf("runner crashed on corrupt cache entry %q: %v", garbage, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("corrupt entry not treated as a miss: %d simulations", calls.Load())
		}
		if st := r.Stats(); st.Hits != 0 || st.Misses != 1 {
			t.Fatalf("stats after corrupt entry = %+v", st)
		}
		// The entry must have been rewritten with the good report.
		back, ok := cache.Get(key)
		if !ok {
			t.Fatal("entry not rewritten after corruption")
		}
		if !reflect.DeepEqual(back, reps[0]) {
			t.Fatalf("rewritten entry differs from result:\n%+v\n%+v", back, reps[0])
		}
	}
}

// TestSingleFlightSharesOneSimulation proves that two concurrent runs of
// the same cell on one shared Runner simulate it once: the second caller
// either joins the in-flight simulation or hits the cache the leader filled.
func TestSingleFlightSharesOneSimulation(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	blocking := func(cfg config.Config, w string) (stats.Report, error) {
		calls.Add(1)
		<-release
		return fakeRun(cfg, w)
	}
	r := &Runner{Workers: 4, Cache: NewMemCache(), RunFn: blocking}
	cell := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}

	type result struct {
		data []byte
		err  error
	}
	runOnce := func(ch chan<- result) {
		reps, err := r.Run([]Cell{cell})
		if err != nil {
			ch <- result{err: err}
			return
		}
		data, err := json.Marshal(reps)
		ch <- result{data: data, err: err}
	}
	a, b := make(chan result, 1), make(chan result, 1)
	go runOnce(a)
	// Wait for the leader to be inside the simulation before starting the
	// second run, so the second run cannot win the race to lead.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	go runOnce(b)
	close(release)
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("errs: %v / %v", ra.err, rb.err)
	}
	if calls.Load() != 1 {
		t.Fatalf("concurrent identical runs simulated %d times, want 1", calls.Load())
	}
	if string(ra.data) != string(rb.data) {
		t.Fatal("shared single-flight result differs between callers")
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss (leader) + 1 hit (follower)", st)
	}
}

// TestRunContextCancelStopsScheduling: cancelling the context drains
// in-flight cells but starts no new ones, and the run reports the
// cancellation wrapped with a cell identity.
func TestRunContextCancelStopsScheduling(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := func(cfg config.Config, w string) (stats.Report, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return fakeRun(cfg, w)
	}
	cells := mustCells(t, SweepSpec{
		Platforms: []config.Platform{config.OhmBase},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud", "sssp", "pagerank", "bfstopo"},
	})

	r := &Runner{Workers: 1, RunFn: blocking}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx, cells, nil)
		errCh <- err
	}()
	<-started
	cancel()
	close(release)
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cancelled run simulated %d cells, want only the in-flight one", got)
	}
}

// TestRunContextProgress pins the progress contract: monotonic done out of
// a fixed total, and hit=false on a cold run vs hit=true on a warm rerun.
func TestRunContextProgress(t *testing.T) {
	cells := mustCells(t, SweepSpec{
		Platforms: []config.Platform{config.OhmBase, config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud", "sssp"},
	})
	r := &Runner{Workers: 4, Cache: NewMemCache(), RunFn: fakeRun}

	observe := func() (dones []int, totals []int, hits []bool) {
		var mu sync.Mutex
		_, err := r.RunContext(context.Background(), cells, func(done, total int, o Outcome) {
			mu.Lock()
			dones = append(dones, done)
			totals = append(totals, total)
			hits = append(hits, o.Hit)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	dones, totals, hits := observe()
	if len(dones) != len(cells) {
		t.Fatalf("progress calls = %d, want %d", len(dones), len(cells))
	}
	for i := range dones {
		if dones[i] != i+1 || totals[i] != len(cells) {
			t.Fatalf("progress[%d] = (%d/%d), want (%d/%d)", i, dones[i], totals[i], i+1, len(cells))
		}
		if hits[i] {
			t.Fatal("cold run reported a cache hit")
		}
	}
	_, _, hits = observe()
	for i, h := range hits {
		if !h {
			t.Fatalf("warm rerun progress[%d] not a cache hit", i)
		}
	}
}

// TestFollowerSurvivesLeaderCancellation: when the single-flight leader's
// job is cancelled, a live follower must not inherit the cancellation —
// it retakes the flight and simulates the cell itself.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var simulations atomic.Int64
	run := func(cfg config.Config, w string) (stats.Report, error) {
		simulations.Add(1)
		started <- struct{}{}
		<-release
		return fakeRun(cfg, w)
	}
	r := &Runner{Workers: 1, Cache: NewMemCache(), RunFn: run}
	occupy := Cell{Config: config.Default(config.Oracle, config.Planar), Workload: "sssp"}
	shared := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}
	key, err := shared.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Fill the single simulation slot so the shared cell's leader blocks in
	// acquire — the only point where a leader can fail with a ctx error.
	occDone := make(chan error, 1)
	go func() { _, err := r.Run([]Cell{occupy}); occDone <- err }()
	<-started

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() { _, err := r.RunContext(ctxA, []Cell{shared}, nil); errA <- err }()
	for { // wait until A leads the shared cell's flight
		r.mu.Lock()
		_, inflight := r.flight[key]
		r.mu.Unlock()
		if inflight {
			break
		}
		runtime.Gosched()
	}
	errB := make(chan error, 1)
	go func() { _, err := r.RunContext(context.Background(), []Cell{shared}, nil); errB <- err }()

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader err = %v", err)
	}
	close(release)
	if err := <-errB; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if err := <-occDone; err != nil {
		t.Fatal(err)
	}
	if got := simulations.Load(); got != 2 {
		t.Fatalf("simulations = %d, want 2 (occupy + retaken shared cell)", got)
	}
}

// TestMissesCountOnlyRealSimulations: a cell abandoned by cancellation
// while queued for a simulation slot must not count as a miss.
func TestMissesCountOnlyRealSimulations(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	run := func(cfg config.Config, w string) (stats.Report, error) {
		started <- struct{}{}
		<-release
		return fakeRun(cfg, w)
	}
	r := &Runner{Workers: 1, Cache: NewMemCache(), RunFn: run}
	occupy := Cell{Config: config.Default(config.Oracle, config.Planar), Workload: "sssp"}
	blocked := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}

	occDone := make(chan error, 1)
	go func() { _, err := r.Run([]Cell{occupy}); occDone <- err }()
	<-started // the only slot is held

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { _, err := r.RunContext(ctx, []Cell{blocked}, nil); errCh <- err }()
	for { // wait until the blocked cell leads its flight (queued on the slot)
		r.mu.Lock()
		n := len(r.flight)
		r.mu.Unlock()
		if n > 0 {
			break
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(release)
	if err := <-occDone; err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (only the occupy cell simulated)", st.Misses)
	}
}
