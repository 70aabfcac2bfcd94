package batch

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/stats"
)

// gatedCache is a MemCache whose Put announces its key on entered, then
// waits for gate to close before storing; with fail set it stores nothing
// and returns an error. gets counts Get calls.
type gatedCache struct {
	*MemCache
	entered chan string
	gate    chan struct{}
	fail    bool
	gets    atomic.Int64
}

// newGatedCache buffers entered past any test's number of writes, so a
// Put's announcement never blocks.
func newGatedCache() *gatedCache {
	return &gatedCache{MemCache: NewMemCache(), entered: make(chan string, 16), gate: make(chan struct{})}
}

func (c *gatedCache) Get(key string) (stats.Report, bool) {
	c.gets.Add(1)
	return c.MemCache.Get(key)
}

func (c *gatedCache) Put(key string, rep stats.Report) error {
	c.entered <- key
	<-c.gate
	if c.fail {
		return errors.New("gatedCache: disk full")
	}
	return c.MemCache.Put(key, rep)
}

// awaitPut waits for the next Put to start, failing the test if none does
// within a generous bound (a runner that writes before moving on never
// starts the second one).
func (c *gatedCache) awaitPut(t *testing.T) {
	t.Helper()
	select {
	case <-c.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no cache write started")
	}
}

// stillRunning fails the test if done delivers within a short grace
// period. A correct runner never delivers here, so the check cannot fail
// spuriously; the grace period only gives a wrong one time to show.
func stillRunning(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (err %v) while a cache write was blocked", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestNextCellRunsWhileWriteBlocked: on a single worker, the second cell
// simulates while the first cell's cache write is still blocked, no cell
// reaches Progress before its write returns, and RunContext waits for
// both writes.
func TestNextCellRunsWhileWriteBlocked(t *testing.T) {
	cells := mustCells(t, SweepSpec{
		Platforms: []config.Platform{config.OhmBase, config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
	})
	var sims, reported atomic.Int64
	run := func(cfg config.Config, w string) (stats.Report, error) {
		sims.Add(1)
		return fakeRun(cfg, w)
	}
	cache := newGatedCache()
	r := &Runner{Workers: 1, Cache: cache, RunFn: run}
	var reps []stats.Report
	done := make(chan error, 1)
	go func() {
		var err error
		reps, err = r.RunContext(context.Background(), cells, func(int, int, Outcome) { reported.Add(1) })
		done <- err
	}()

	cache.awaitPut(t)
	cache.awaitPut(t) // the second write can only start once its cell simulated
	if n := sims.Load(); n != 2 {
		t.Fatalf("%d cells simulated with the first write blocked, want 2", n)
	}
	if n := reported.Load(); n != 0 {
		t.Fatalf("Progress counted %d cells whose writes had not returned", n)
	}
	stillRunning(t, done, "RunContext")

	close(cache.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := reported.Load(); n != 2 {
		t.Fatalf("Progress counted %d cells, want 2", n)
	}
	for i, c := range cells {
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := cache.MemCache.Get(key)
		if !ok {
			t.Fatalf("cell %d not in the cache after RunContext returned", i)
		}
		if got, want := mustJSON(t, reps[i]), mustJSON(t, stored); got != want {
			t.Fatalf("cell %d: returned %s, stored %s", i, got, want)
		}
	}
}

// TestFollowerWaitsForLeaderWrite: a second caller of a cell whose result
// is computed but not yet stored joins the flight, waits for the write,
// and then gets its own copy of the stored form.
func TestFollowerWaitsForLeaderWrite(t *testing.T) {
	var sims atomic.Int64
	run := func(cfg config.Config, w string) (stats.Report, error) {
		sims.Add(1)
		return fakeRun(cfg, w)
	}
	cache := newGatedCache()
	r := &Runner{Workers: 2, Cache: cache, RunFn: run}
	cell := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}

	var lreps, freps []stats.Report
	ldone, fdone := make(chan error, 1), make(chan error, 1)
	go func() {
		var err error
		lreps, err = r.Run([]Cell{cell})
		ldone <- err
	}()
	cache.awaitPut(t) // computed; the write is blocked and the flight open
	gets := cache.gets.Load()
	go func() {
		var err error
		freps, err = r.Run([]Cell{cell})
		fdone <- err
	}()
	for cache.gets.Load() == gets { // the follower's lookup missed
		runtime.Gosched()
	}
	stillRunning(t, fdone, "the follower's Run")

	close(cache.gate)
	if err := <-ldone; err != nil {
		t.Fatal(err)
	}
	if err := <-fdone; err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("simulated %d times, want 1", n)
	}
	if st := r.Stats(); st.Misses != 1 || st.Shared != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss (leader) and 1 shared hit (follower)", st)
	}
	if mustJSON(t, freps) != mustJSON(t, lreps) {
		t.Fatal("follower's report differs from the leader's")
	}
	freps[0].EnergyPJ["laser"] = -1
	if lreps[0].EnergyPJ["laser"] == -1 {
		t.Fatal("follower's report aliases the leader's maps")
	}
}

// TestCancelledRunWaitsForItsWrites: a run cancelled while a computed
// cell's write is in flight starts no further cell but still returns only
// after that write has landed, and reports the landed cell.
func TestCancelledRunWaitsForItsWrites(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(cfg config.Config, w string) (stats.Report, error) {
		cancel() // the first cell cancels its own run
		return fakeRun(cfg, w)
	}
	cells := mustCells(t, SweepSpec{
		Platforms: []config.Platform{config.OhmBase, config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
	})
	cache := newGatedCache()
	r := &Runner{Workers: 1, Cache: cache, RunFn: run}
	var reported atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx, cells, func(int, int, Outcome) { reported.Add(1) })
		done <- err
	}()

	cache.awaitPut(t)
	stillRunning(t, done, "the cancelled RunContext")
	close(cache.gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	key, err := cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.MemCache.Get(key); !ok {
		t.Fatal("the computed cell is not in the cache")
	}
	if n := reported.Load(); n != 1 {
		t.Fatalf("Progress counted %d cells, want the 1 that landed", n)
	}
	if n := len(cache.entered); n != 0 {
		t.Fatalf("%d more writes after cancellation, want 0", n)
	}
}

// TestFailedPutReturnsStoredForm: a write that fails still hands back the
// stored form (a private copy, not the simulator's report) and is counted.
func TestFailedPutReturnsStoredForm(t *testing.T) {
	var raw stats.Report
	run := func(cfg config.Config, w string) (stats.Report, error) {
		rep, err := fakeRun(cfg, w)
		raw = rep
		return rep, err
	}
	cache := newGatedCache()
	cache.fail = true
	close(cache.gate)
	r := &Runner{Workers: 1, Cache: cache, RunFn: run}
	cell := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}
	before := mCachePutErrors.Value()

	reps, err := r.Run([]Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
	}
	if d := mCachePutErrors.Value() - before; d != 1 {
		t.Fatalf("ohm_result_cache_put_errors_total moved by %d, want 1", d)
	}
	if got, want := mustJSON(t, reps[0]), mustJSON(t, raw); got != want {
		t.Fatalf("returned %s, computed %s", got, want)
	}
	raw.EnergyPJ["laser"] = -1
	if reps[0].EnergyPJ["laser"] == -1 {
		t.Fatal("a failed write returned the simulator's report, not its stored form")
	}
}

// TestRunCellLandsItsWrite: the per-cell entry points store a computed
// cell before they return.
func TestRunCellLandsItsWrite(t *testing.T) {
	cache := NewMemCache()
	r := &Runner{Workers: 1, Cache: cache, RunFn: fakeRun}
	cell := Cell{Config: config.Default(config.OhmBase, config.Planar), Workload: "lud"}
	rep, o, err := r.RunCell(context.Background(), cell)
	if err != nil || o.Hit {
		t.Fatalf("RunCell = hit %v, err %v", o.Hit, err)
	}
	key, err := cell.Key()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := cache.Get(key)
	if !ok {
		t.Fatal("RunCell returned before its write landed")
	}
	if mustJSON(t, stored) != mustJSON(t, rep) {
		t.Fatal("RunCell's report differs from the stored one")
	}
}
