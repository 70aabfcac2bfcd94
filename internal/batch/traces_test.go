package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// traceSweep returns an Oracle sweep over GRAMS, FDTD, backp and lud at
// two seeds, 200 instructions per warp: 8 distinct traces. With shared set
// each trace serves two adjacent cells, planar then two-level (the mode
// is not part of a trace's key).
func traceSweep(t *testing.T, shared bool) (cells []Cell, traces int) {
	t.Helper()
	modes := []config.MemMode{config.Planar}
	if shared {
		modes = append(modes, config.TwoLevel)
	}
	cells = mustCells(t, SweepSpec{
		Platforms:       []config.Platform{config.Oracle},
		Modes:           modes,
		Workloads:       []string{"GRAMS", "FDTD", "backp", "lud"},
		MaxInstructions: 200,
		Overrides:       Overrides{"seed": Axis{float64(11), float64(12)}},
	})
	if shared {
		planar, twoLevel := cells[:8], cells[8:]
		cells = nil
		for i := range planar {
			cells = append(cells, planar[i], twoLevel[i])
		}
	}
	return cells, 8
}

// resident reports whether the registry trace cell c would read is
// resident, whether or not c reads it.
func resident(t *testing.T, c *Cell) bool {
	t.Helper()
	w, ok := c.definition()
	if !ok {
		t.Fatalf("cell %s: unknown workload", c)
	}
	return trace.Resident(w, &c.Config)
}

// spareCore raises GOMAXPROCS for the test, if need be, so that a runner
// with the given number of slots leaves a core spare and its sweeps
// generate traces ahead.
func spareCore(t *testing.T, workers int) {
	t.Helper()
	if procs := runtime.GOMAXPROCS(0); procs <= workers {
		runtime.GOMAXPROCS(workers + 1)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
}

// awaitResident waits for cell c's trace to become resident. The wait
// sleeps between polls, so it takes no core from the trace's generator.
func awaitResident(t *testing.T, c *Cell) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !resident(t, c); {
		if time.Now().After(deadline) {
			t.Fatalf("cell %s: its trace never became resident", c)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepGeneratesEachTraceOnce: a cold sweep generates each distinct
// trace exactly once, whether the trace serves one cell or two and
// whether one worker or two run the cells. With one worker, the second
// cell's trace is on its way while the first cell simulates.
func TestSweepGeneratesEachTraceOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/shared=%v", workers, shared), func(t *testing.T) {
				spareCore(t, workers)
				trace.ResetCache()
				defer trace.ResetCache()
				cells, traces := traceSweep(t, shared)
				second := &cells[1]
				if shared {
					second = &cells[2]
				}
				var progress Progress
				if workers == 1 {
					progress = func(done, _ int, _ Outcome) {
						if done == 1 {
							awaitResident(t, second)
						}
					}
				}
				before := trace.Generations()
				r := &Runner{Workers: workers}
				if _, err := r.RunContext(context.Background(), cells, progress); err != nil {
					t.Fatal(err)
				}
				if got := trace.Generations() - before; got != uint64(traces) {
					t.Fatalf("the sweep generated %d traces, want each of its %d once", got, traces)
				}
				if n := trace.CacheLen(); n != traces {
					t.Fatalf("registry holds %d traces, want %d", n, traces)
				}
			})
		}
	}
}

// TestSweepGeneratesNothingAhead: cells that never read the registry, and
// a sweep in which no cell simulates, generate no trace at all, even with
// a core spare. Only the
// all-hit sweep's cells read the registry, so only it leaves pinned keys
// behind; a sweep of Phased cells leaves the registry as it found it.
func TestSweepGeneratesNothingAhead(t *testing.T) {
	cases := []struct {
		name string
		cell func(*Cell)
		fake bool
		// hit sweeps once first, so every cell hits the cache.
		hit bool
	}{
		{name: "phased", cell: func(c *Cell) { c.Variant = core.Phased(2) }},
		{name: "analytical", cell: func(c *Cell) { c.Exec = config.ExecAnalytical }},
		{name: "runfn", fake: true},
		{name: "all-hit", hit: true},
	}
	for _, workers := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				spareCore(t, workers)
				trace.ResetCache()
				defer trace.ResetCache()
				cells, traces := traceSweep(t, false)
				for i := range cells {
					if tc.cell != nil {
						tc.cell(&cells[i])
					}
				}
				r := &Runner{Workers: workers, Cache: NewMemCache()}
				if tc.fake {
					r.RunFn = fakeRun
				}
				if tc.hit {
					if _, err := r.Run(cells); err != nil {
						t.Fatal(err)
					}
					trace.ResetCache()
				}
				before, entries := trace.Generations(), trace.CacheLen()
				if _, err := r.Run(cells); err != nil {
					t.Fatal(err)
				}
				if got := trace.Generations() - before; got != 0 {
					t.Fatalf("the sweep generated %d registry traces, want 0", got)
				}
				want := entries
				if tc.hit {
					want += traces
				}
				if n := trace.CacheLen(); n != want {
					t.Fatalf("registry holds %d keys after the sweep, want %d", n, want)
				}
			})
		}
	}
}

// TestTraceAheadSkipsCellsThatReadNone drives one call's sweepTraces cell
// by cell: a cell that starts simulating generates the trace of the next
// cell whose trace no earlier cell reads, passing over its own trace,
// Phased, analytical and RunFn-faked cells, and traces already resident;
// a cell that reads none generates nothing; and a cancelled call drops
// the request still waiting for the goroutine.
func TestTraceAheadSkipsCellsThatReadNone(t *testing.T) {
	spareCore(t, 1)
	trace.ResetCache()
	defer trace.ResetCache()
	cells, _ := traceSweep(t, false)
	// 0 reads, 1 reads cell 0's trace, 2 is Phased, 3 reads, 4 is
	// analytical, 5 is faked (a named default cell), 6 reads through its
	// inline definition, 7 reads.
	cells[1] = cells[0]
	for i := range cells {
		if i != 5 && i != 6 {
			cells[i].Variant = core.MergesProbe // not faked: RunFn sees no variant
		}
	}
	cells[2].Variant = core.Phased(2)
	cells[4].Exec = config.ExecAnalytical
	def, _ := config.WorkloadByName(cells[6].Workload)
	cells[6].WorkloadDef = &def
	r := &Runner{Workers: 1, RunFn: fakeRun}

	wantResident := func(step string, want ...int) {
		t.Helper()
		for i := range cells {
			in := false
			for _, j := range want {
				in = in || i == j
			}
			if got := resident(t, &cells[i]); got != in {
				t.Fatalf("%s: cell %d's trace resident = %v, want %v", step, i, got, in)
			}
		}
	}

	s := r.pinTraces(context.Background(), cells)
	defer s.release()
	s.started(2) // Phased
	s.started(4) // analytical
	s.started(5) // faked
	s.wg.Wait()
	wantResident("cells reading no trace started")

	// Cell 0's trace is not resident yet, but it is cell 0's own: cell 1,
	// which shares it, is passed over, and so is Phased cell 2.
	s.started(0)
	s.wg.Wait()
	wantResident("cell 0 started", 3)

	// A resident trace is passed over: cell 6's is resident already, so
	// cell 3's start, which skips cells 4 and 5, generates cell 7's.
	trace.Cached(def, &cells[6].Config)
	s.started(3)
	s.wg.Wait()
	wantResident("cell 3 started", 3, 6, 7)
	s.started(7) // the last cell: nothing left
	s.wg.Wait()

	// While the goroutine is busy, a request waits for it instead of
	// starting a second generation; one still waiting when the call is
	// cancelled is dropped.
	ctx, cancel := context.WithCancel(context.Background())
	trace.ResetCache()
	c := r.pinTraces(ctx, cells)
	defer c.release()
	c.running = true
	c.started(0)
	c.wg.Wait()
	wantResident("goroutine busy")
	cancel()
	c.mu.Lock()
	_, took := c.takeLocked()
	c.mu.Unlock()
	if took {
		t.Fatal("a cancelled call took its waiting request")
	}
}

// TestCancelledSweepWaitsForTraceAhead: cancelling a sweep while the next
// cell's trace is being generated ahead returns only once that generation
// has finished, and leaves no goroutine behind. All cells read distinct
// traces.
func TestCancelledSweepWaitsForTraceAhead(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spareCore(t, workers)
			trace.ResetCache()
			defer trace.ResetCache()
			small := config.Default(config.Oracle, config.Planar)
			small.MaxInstructions = 100
			// The second cell's trace is a default-length pagerank trace
			// (~25 MB of records), so its generation is still running when
			// the first cell finishes.
			big := config.Default(config.Oracle, config.Planar)
			cells := []Cell{
				{Config: small, Workload: "lud"},
				{Config: big, Workload: "pagerank"},
				{Config: small, Workload: "sssp"},
			}
			if workers == 2 {
				// The second worker takes the big cell at once and would
				// generate its trace itself; give it a third cell to find.
				cells = append(cells[:1], append([]Cell{{Config: small, Workload: "bfsdata"}}, cells[1:]...)...)
			}
			goroutines := runtime.NumGoroutine()
			before := trace.Generations()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &Runner{Workers: workers}
			_, err := r.RunContext(ctx, cells, func(int, int, Outcome) {
				if workers == 1 {
					// Cancel once the trace generated ahead is on its way,
					// so the call has a generation in flight to wait for.
					awaitResident(t, &cells[1])
				}
				cancel()
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Every trace claimed for generation must be generated by now:
			// a generation still running would be resident but uncounted.
			var claimed uint64
			for i := range cells {
				if resident(t, &cells[i]) {
					claimed++
				}
			}
			if generated := trace.Generations() - before; generated != claimed {
				t.Fatalf("%d traces generated, %d claimed: a generation outlived RunContext", generated, claimed)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestTraceAheadSkipsInvalidCells: a cell whose config or variant core.Run
// rejects reads no trace, so none is generated for it ahead. A one-worker
// sweep of a valid cell and then one that fails Config.Validate returns
// Validate's error and generates the valid cell's trace alone. Cells over
// the trace budget, the case Validate's budget guards, are checked without
// a sweep: were one generated ahead, it would take gigabytes.
func TestTraceAheadSkipsInvalidCells(t *testing.T) {
	spareCore(t, 1)
	trace.ResetCache()
	defer trace.ResetCache()
	small := config.Default(config.Oracle, config.Planar)
	small.MaxInstructions = 200
	bad := small
	bad.DRAM.Banks = 0 // no part of the trace's key: generating it is cheap
	want := bad.Validate()
	if want == nil {
		t.Fatal("a config with no DRAM banks validates")
	}
	cells := []Cell{{Config: small, Workload: "lud"}, {Config: bad, Workload: "sssp"}}
	r := &Runner{Workers: 1}
	before := trace.Generations()
	if _, err := r.Run(cells); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("err = %v, want the cell's %q", err, want)
	}
	if got := trace.Generations() - before; got != 1 {
		t.Fatalf("the sweep generated %d traces, want the valid cell's alone", got)
	}
	if resident(t, &cells[1]) {
		t.Fatal("the invalid cell's trace was generated")
	}

	over := small
	over.MaxInstructions = config.MaxTraceInstructions
	zeroLine := small
	zeroLine.GPU.LineBytes = 0
	for _, c := range []Cell{
		{Config: over, Workload: "lud"},
		{Config: zeroLine, Workload: "lud"},
		{Config: small, Workload: "lud", Variant: "nope"},
		{Config: small, Workload: "lud", Variant: "abl-phased-02"},
	} {
		if _, reads := r.registryTrace(&c); reads {
			t.Errorf("cell %s reads a registry trace, but core.Run rejects it first", c)
		}
	}
}

// TestTraceAheadOnlyWhereItPays: a call generates nothing ahead when the
// runner's slots claim every core, nor for a next cell the result cache
// holds (the next cell to simulate makes its own request), nor with a
// cache it cannot ask without reading the entry.
func TestTraceAheadOnlyWhereItPays(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	cells, _ := traceSweep(t, false)
	ahead := func(r *Runner, i int) {
		t.Helper()
		s := r.pinTraces(context.Background(), cells)
		s.started(i)
		s.release()
	}

	ahead(&Runner{Workers: runtime.GOMAXPROCS(0)}, 0)
	if resident(t, &cells[1]) {
		t.Fatal("a runner with no core spare generated a trace ahead")
	}

	spareCore(t, 1)
	disk, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []Cache{NewMemCache(), disk} {
		trace.ResetCache()
		r := &Runner{Workers: 1, Cache: cache}
		if _, err := r.Run(cells[1:2]); err != nil {
			t.Fatal(err)
		}
		trace.ResetCache()
		ahead(r, 0)
		if resident(t, &cells[1]) || resident(t, &cells[2]) {
			t.Fatalf("%T: a trace was generated ahead for a cell the cache holds, or past it", cache)
		}
		ahead(r, 2)
		if !resident(t, &cells[3]) {
			t.Fatalf("%T: a cell the cache lacks had no trace generated ahead", cache)
		}
	}

	trace.ResetCache()
	ahead(&Runner{Workers: 1, Cache: struct{ Cache }{NewMemCache()}}, 0)
	if resident(t, &cells[1]) {
		t.Fatal("a trace was generated ahead with a cache that cannot be asked")
	}
}
