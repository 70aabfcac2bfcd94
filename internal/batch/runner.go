package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/twin"
)

// Runner executes sweep cells on a pool of worker goroutines. Each cell is
// an independent single-threaded simulation, so the sweep is embarrassingly
// parallel; results are returned in cell order regardless of completion
// order, so parallel and serial runs of the same spec are byte-identical.
//
// One Runner is safe to share across concurrent Run/RunContext calls — the
// ohmserve daemon runs every job on a single process-wide Runner. Sharing
// gives jobs three things: a common result cache, a process-wide cap on
// concurrent simulations (the semaphore below, so N jobs cannot
// oversubscribe the machine N-fold), and single-flight deduplication on
// cache keys, so two jobs that request the same cell at the same time
// simulate it once and share the result.
//
// A call whose runner has fewer slots than GOMAXPROCS also generates its
// cells' traces a cell ahead of its simulations, on one goroutine of its
// own that runs outside the simulation cap (see sweepTraces): beside the
// capped simulations, each such call has at most one trace generation in
// flight.
//
// A computed cell's result reaches the cache before anyone is told the
// cell is done: its progress report, its single-flight followers and the
// return of the call that computed it all wait for its cache write. Within
// RunContext that write runs beside the worker's next cell rather than
// before it.
type Runner struct {
	// Workers caps the number of concurrently executing simulations across
	// all Run/RunContext calls on this Runner; <=0 means GOMAXPROCS. Below
	// GOMAXPROCS, each call also generates one trace at a time ahead of its
	// simulations, outside this cap. It must be set before the first Run.
	Workers int
	// Cache, when non-nil, short-circuits cells whose content address has a
	// stored report and stores fresh results.
	Cache Cache
	// RunFn, when non-nil, replaces the simulation of every cell its
	// (config, name) arguments describe whole: a named workload run as the
	// default variant. Cells carrying an inline WorkloadDef or a Variant
	// bypass it and always run core.Run. Tests inject fakes and counters
	// here to prove warm-cache runs never simulate.
	RunFn RunFunc

	hits       atomic.Uint64
	misses     atomic.Uint64
	shared     atomic.Uint64
	putErrs    atomic.Uint64
	analytical atomic.Uint64

	semOnce sync.Once
	sem     chan struct{}

	mu     sync.Mutex
	flight map[string]*flightCall
}

// flightCall is one in-flight cacheable simulation that concurrent
// requesters of the same key can wait on instead of re-simulating. A
// computed result waits in rep, as computed, until land stores it; done
// closes once the result is in the cache (or the attempt failed), and rep
// then holds the result's stored form.
type flightCall struct {
	key  string
	done chan struct{}
	rep  stats.Report
	err  error
}

// endFlight removes a finished flight and releases its followers.
func (r *Runner) endFlight(call *flightCall) {
	r.mu.Lock()
	delete(r.flight, call.key)
	r.mu.Unlock()
	close(call.done)
}

// land stores a computed cell's result, ends its flight and returns the
// result's stored form. Until land has run, no follower and no progress
// report sees the cell.
//
// The stored form is made here, on the writer, rather than by the worker
// that computed the cell. Against a MemCache, where a Put costs ~10 µs, a
// 48-cell analytical sweep took a median of 4.1 ms with its writes in
// line and 4.9 ms with the round trip on the worker; with it here the
// sweep read as fast as in line (2-vCPU Xeon, interleaved sets of 100
// sweeps).
func (r *Runner) land(call *flightCall) stats.Report {
	call.rep = r.Store(call.key, call.rep)
	r.endFlight(call)
	return call.rep
}

// Store writes a computed result to the cache under key and returns the
// result's stored form, so computed and cached results are byte-identical;
// without a cache it returns rep as is. It is the runner's one write path,
// also taken by the dist coordinator for the results its workers compute.
// The cache is an optimization, not a correctness dependency: a failed Put
// (full disk, lost permissions) does not discard a computed result, so it
// only bumps a counter the caller can surface (Stats.PutErrors).
func (r *Runner) Store(key string, rep stats.Report) stats.Report {
	if r.Cache == nil {
		return rep
	}
	if err := r.Cache.Put(key, rep); err != nil {
		r.putErrs.Add(1)
		mCachePutErrors.Inc()
	}
	return StoredForm(rep)
}

// cellWriters bounds the cache writes one RunContext call has in flight.
// A DiskCache.Put on ext4 takes ~0.1 to ~1 ms, most of it CPU time in the
// kernel creating the temp file, and more while another file on the
// filesystem is being fsynced, as the job journal is on every submit and
// finish; an analytical cell computes in ~25 µs. A 48-cell analytical
// sweep on one worker beside a file fsynced every 20 ms (2-vCPU Xeon,
// ext4; medians of 30 sweeps in three interleaved sets) took 28-44 ms
// with its writes in line, 33-37 ms with 1 writer and 16-21 ms with 2,
// 4, 8 or 16, which read alike: two writers already fill both CPUs. 4
// leaves room for a host with more.
const cellWriters = 4

// cellWrites runs one RunContext call's cache writes, at most cellWriters
// at a time, each on its own goroutine; wait returns once all have landed.
type cellWrites struct {
	slots chan struct{}
	wg    sync.WaitGroup
}

// start runs f on a new writer, first waiting for a free slot. Waiting
// here is the back-pressure that keeps a worker from running ahead of its
// writes.
func (ws *cellWrites) start(f func()) {
	ws.slots <- struct{}{}
	ws.wg.Add(1)
	go func() {
		defer ws.wg.Done()
		f()
		<-ws.slots
	}()
}

// wait returns once every started write has landed; a nil cellWrites has
// none.
func (ws *cellWrites) wait() {
	if ws != nil {
		ws.wg.Wait()
	}
}

// NewRunner returns a Runner with the given pool size and cache (both may
// be zero values).
func NewRunner(workers int, cache Cache) *Runner {
	return &Runner{Workers: workers, Cache: cache}
}

// Stats reports cache traffic since the Runner was created: hits served
// from the cache, misses that ran a simulation, single-flight waits that
// shared another caller's in-flight simulation (also counted as hits), and
// store failures that were tolerated (the result was still returned).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Shared    uint64
	PutErrors uint64
	// Analytical counts cells resolved in analytical (twin) mode,
	// whether estimated fresh or served from the cache.
	Analytical uint64
}

// Stats returns the accumulated counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Shared:     r.shared.Load(),
		PutErrors:  r.putErrs.Load(),
		Analytical: r.analytical.Load(),
	}
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquire takes one process-wide simulation slot; cancellation while
// queued for a slot abandons the cell without simulating.
func (r *Runner) acquire(ctx context.Context) error {
	r.semOnce.Do(func() {
		r.sem = make(chan struct{}, r.workers())
		mSimSlots.Add(int64(r.workers()))
	})
	select {
	case r.sem <- struct{}{}:
		mActiveSims.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runner) release() {
	mActiveSims.Dec()
	<-r.sem
}

// Progress observes cell completions during RunContext: done counts cells
// resolved so far out of total, and o says how this cell was resolved.
// Calls are serialized and done is strictly increasing; cells abandoned by
// cancellation or failure are never reported. A cell computed here is
// reported only once its cache write has returned, so with a cache every
// reported cell is stored; calls may therefore come from a writer
// goroutine, and out of cell order.
type Progress func(done, total int, o Outcome)

// Outcome is how one cell was resolved, reported with it to Progress: the
// serving layer sums a job's outcomes into its timing block.
type Outcome struct {
	// Hit reports that the cell was served without simulating for this
	// caller, from the cache or a shared in-flight result.
	Hit bool
	// Remote reports that a remote worker computed the cell.
	Remote bool
	// Analytical reports that the closed-form twin resolved the cell.
	Analytical bool
	// Wall is the cell's wall time. For a cell this runner resolved it
	// excludes the cell's cache write; for a dispatched cell it runs from
	// when this caller asked the coordinator for it until the coordinator
	// had stored the result, so queue wait, transport and that write are
	// included.
	Wall time.Duration
	// Phases is the measured split of a cell simulated for this caller,
	// here or by the worker that ran it; zero otherwise.
	Phases obs.Phases
}

// RunSpec expands the spec and runs its cells.
func (r *Runner) RunSpec(spec SweepSpec) ([]stats.Report, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	return r.Run(cells)
}

// Run executes every cell and returns reports positionally aligned with
// cells. On failure it returns the error of the lowest-indexed failing
// cell, wrapped with the cell's identity; all in-flight cells still drain.
func (r *Runner) Run(cells []Cell) ([]stats.Report, error) {
	return r.RunContext(context.Background(), cells, nil)
}

// RunContext is Run with cancellation and per-cell progress reporting.
// Cancelling ctx stops new cells from starting and abandons cells queued
// for a simulation slot; cells already simulating run to completion (the
// discrete-event core is not interruptible) and their results still land
// in the cache. A cancelled run returns ctx's error wrapped with the first
// unstarted cell's identity.
//
// A computed cell's cache write runs on one of the call's writers (at most
// cellWriters at once) while its worker goes on to the next cell, and the
// writer fills in the cell's report, in the stored form the cache hands
// back. Where a core is spare, each simulation also starts generating the
// next cell's trace on the call's own goroutine (see sweepTraces).
// RunContext returns only after every write it started has returned and
// the trace generation in flight has finished, cancelled or not.
func (r *Runner) RunContext(ctx context.Context, cells []Cell, progress Progress) ([]stats.Report, error) {
	reports := make([]stats.Report, len(cells))
	errs := make([]error, len(cells))
	traces := r.pinTraces(ctx, cells)
	defer traces.release()

	// tally.mu serializes progress and guards the rest of tally. The first
	// computed cell to store makes the call's writers, so a call whose
	// cells all hit, or whose runner has no cache, makes none.
	var tally struct {
		mu        sync.Mutex
		completed int
		writes    *cellWrites
	}
	note := func(o Outcome) {
		if progress == nil {
			return
		}
		tally.mu.Lock()
		tally.completed++
		progress(tally.completed, len(cells), o)
		tally.mu.Unlock()
	}

	do := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		rep, o, write, err := r.runCell(ctx, cells[i], func() { traces.started(i) })
		reports[i], errs[i] = rep, err
		switch {
		case err != nil:
		case write != nil:
			tally.mu.Lock()
			if tally.writes == nil {
				tally.writes = &cellWrites{slots: make(chan struct{}, cellWriters)}
			}
			writes := tally.writes
			tally.mu.Unlock()
			writes.start(func() {
				reports[i] = r.land(write)
				note(o)
			})
		default:
			note(o)
		}
	}

	n := r.workers()
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		for i := range cells {
			do(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					do(i)
				}
			}()
		}
		for i := range cells {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	tally.writes.wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("batch: cell %d (%s): %w", i, cells[i], err)
		}
	}
	return reports, nil
}

// registryTrace returns the workload whose registry trace the cell reads
// when it simulates. Analytical cells read none (the twin evaluates the
// trace's distribution in closed form), nor do cells RunFn fakes (it is
// opaque) or Phased cells, which generate a private trace. Neither does a
// cell whose variant or config core.Run rejects before reading its trace:
// Config.Validate's budget is what keeps an untrusted spec from demanding
// a trace of many gigabytes, so no trace is generated ahead unchecked.
func (r *Runner) registryTrace(c *Cell) (config.Workload, bool) {
	if c.Exec == config.ExecAnalytical || r.fakes(c) || !c.Variant.SharedTrace() || c.Config.Validate() != nil {
		return config.Workload{}, false
	}
	return c.definition()
}

// sweepTraces is one RunContext call's hold on the registry traces its
// cells read. It pins each of them for the call, so the registry's LRU
// bound cannot evict a trace between two cells that share it (which would
// generate it twice). And where a core is spare it generates them a cell
// ahead: when a cell starts simulating, the call generates, on a goroutine
// of its own, the trace of the next cell in sweep order whose trace is not
// yet resident. That cell then finds its trace ready, or waits only for
// the rest of its generation, instead of generating it on the goroutine
// that simulates. The goroutine generates one trace at a time; a cell that
// starts while it is busy has its request served once the generation in
// flight ends.
//
// The goroutine runs outside the runner's simulation cap, so a call
// generates ahead only when the runner has fewer slots than GOMAXPROCS;
// with every core claimed by a slot, the generation would only take a core
// from a simulation. And it generates no trace for a cell the result cache
// holds, which reads none: such a request is dropped, and the next cell to
// simulate makes its own. The call asks the cache whether it holds a key
// without reading the entry (holder), so it generates ahead only with no
// cache, a MemCache or a DiskCache.
type sweepTraces struct {
	ctx   context.Context
	pins  trace.Pins
	cells []traceCell
	// ahead is set when the call generates traces ahead; cached, when
	// non-nil, is the result cache it asks before each generation.
	ahead  bool
	cached holder

	mu sync.Mutex
	// next indexes cells: the goroutine looks for a trace to generate from
	// here on, past the latest cell to start simulating and the latest cell
	// it took. asked is set while that cell's request waits for the
	// goroutine, running while the goroutine runs.
	next    int
	asked   bool
	running bool
	wg      sync.WaitGroup
}

// holder is a result cache that can tell whether it holds a key without
// reading the entry.
type holder interface{ has(key string) bool }

// traceCell is what one cell of the sweep reads from the registry: if c is
// set, the trace of workload w under c's config, and whether c is the first
// cell in sweep order to read that trace.
type traceCell struct {
	c     *Cell
	w     config.Workload
	first bool
}

// pinTraces pins every distinct trace the cells read, before any cell
// runs. Pinning is an upper bound: a cell served from the result cache
// never touches the registry.
func (r *Runner) pinTraces(ctx context.Context, cells []Cell) *sweepTraces {
	s := &sweepTraces{ctx: ctx, cells: make([]traceCell, len(cells))}
	if r.workers() < runtime.GOMAXPROCS(0) {
		switch c := r.Cache.(type) {
		case nil:
			s.ahead = true
		case holder:
			s.ahead, s.cached = true, c
		}
	}
	for i := range cells {
		c := &cells[i]
		if w, ok := r.registryTrace(c); ok {
			s.cells[i] = traceCell{c: c, w: w, first: s.pins.Add(w, &c.Config)}
		}
	}
	return s
}

// started is called as cell i starts simulating. If the call generates
// ahead and that cell reads a registry trace, it asks for the trace of the
// first later cell whose trace no earlier cell reads and is not yet
// resident (never cell i's own), and starts the goroutine on it; a busy
// goroutine takes the request when its generation ends.
func (s *sweepTraces) started(i int) {
	if !s.ahead || s.cells[i].c == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next, s.asked = max(s.next, i+1), true
	if s.running {
		return
	}
	if t, ok := s.takeLocked(); ok {
		s.running = true
		s.wg.Add(1)
		go s.generate(t)
	}
}

// generate is the call's goroutine: it generates t's trace into the
// registry, unless t's cell hits the result cache, then the traces of the
// requests made meanwhile, until none is waiting.
func (s *sweepTraces) generate(t traceCell) {
	defer s.wg.Done()
	for ok := true; ok; {
		if !s.hits(t.c) {
			trace.Cached(t.w, &t.c.Config)
		}
		s.mu.Lock()
		t, ok = s.takeLocked()
		s.running = ok
		s.mu.Unlock()
	}
}

// hits reports whether the result cache holds c's result, so that c will
// read no trace. A cell whose key does not hash fails before reading one.
func (s *sweepTraces) hits(c *Cell) bool {
	if s.cached == nil {
		return false
	}
	key, err := c.Key()
	return err != nil || s.cached.has(key)
}

// takeLocked returns the trace the waiting request asks for; false means
// there is none. A cancelled call generates nothing more: its waiting
// request is dropped. Caller holds s.mu.
func (s *sweepTraces) takeLocked() (traceCell, bool) {
	if !s.asked || s.ctx.Err() != nil {
		return traceCell{}, false
	}
	s.asked = false
	// Traces once resident stay so: they are pinned.
	for s.next < len(s.cells) {
		t := s.cells[s.next]
		s.next++
		if t.first && !trace.Resident(t.w, &t.c.Config) {
			return t, true
		}
	}
	return traceCell{}, false
}

// release waits for the goroutine, then unpins the traces.
func (s *sweepTraces) release() {
	s.wg.Wait()
	s.pins.Release()
}

// runCell resolves one cell, feeds its wall time and outcome to the
// process metrics and returns the outcome. A computed cell's flight is
// returned with its cache write still to run, and the wall time excludes
// the write: the caller must land it, at once or on a writer, and take the
// report land returns. started, when non-nil, is called as the cell
// starts simulating (see simulate).
func (r *Runner) runCell(ctx context.Context, c Cell, started func()) (stats.Report, Outcome, *flightCall, error) {
	start := time.Now()
	rep, hit, ph, write, err := r.resolveCell(ctx, c, started)
	if err != nil {
		return rep, Outcome{}, nil, err
	}
	o := Outcome{Hit: hit, Analytical: c.Exec == config.ExecAnalytical, Wall: time.Since(start), Phases: ph}
	if o.Analytical {
		r.analytical.Add(1)
	}
	mCellsCompleted.With(c.Exec.String()).Inc()
	mCellDuration.ObserveDuration(o.Wall)
	if !ph.IsZero() {
		mCellPhase.With(phaseTraceGen).ObserveDuration(ph.TraceGen)
		mCellPhase.With(phasePlatformBuild).ObserveDuration(ph.PlatformBuild)
		mCellPhase.With(phaseEventLoop).ObserveDuration(ph.EventLoop)
	}
	return rep, o, write, nil
}

// NoteExternalResolve accounts for a cell that was resolved outside
// runCell — the dist coordinator serving a waiter straight from the
// shared cache, or handing extra same-key waiters a copy of one computed
// result. Without this, a cell resolved by the dispatcher's fast path
// would vanish from ohm_cells_completed{mode} and the /v1/healthz cache
// counters, so a clustered run would under-report completed cells
// relative to an identical single-process run. shared marks the
// piggyback case (several waiters, one computation), mirroring the
// single-flight follower accounting in resolveCell.
func (r *Runner) NoteExternalResolve(exec config.ExecMode, shared bool) {
	r.hits.Add(1)
	mCacheHits.Inc()
	if shared {
		r.shared.Add(1)
		mCacheShared.Inc()
	}
	if exec == config.ExecAnalytical {
		r.analytical.Add(1)
	}
	mCellsCompleted.With(exec.String()).Inc()
}

// resolveCell resolves one cell: cache lookup, then single-flight
// simulation. The bool result reports whether the cell was served without
// simulating here (cache hit or shared in-flight result). A cell computed
// here comes back as computed, together with its flight for land; landing
// stores the result, ends the flight and yields the stored form, which is
// what callers are handed, so fresh and cached results are byte-identical.
func (r *Runner) resolveCell(ctx context.Context, c Cell, started func()) (stats.Report, bool, obs.Phases, *flightCall, error) {
	var key string
	if r.Cache != nil {
		k, err := c.Key()
		if err != nil {
			return stats.Report{}, false, obs.Phases{}, nil, err
		}
		key = k
		if rep, ok := r.Cache.Get(key); ok {
			r.hits.Add(1)
			mCacheHits.Inc()
			return rep, true, obs.Phases{}, nil, nil
		}
	}
	if key == "" {
		rep, ph, err := r.simulate(ctx, c, started)
		return rep, false, ph, nil, err
	}

	// Single-flight: concurrent requests for one key (two jobs polling the
	// same figure, overlapping sweeps) elect a leader that simulates while
	// everyone else waits for its result to be stored.
joinFlight:
	r.mu.Lock()
	if r.flight == nil {
		r.flight = make(map[string]*flightCall)
	}
	if call, inflight := r.flight[key]; inflight {
		r.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return stats.Report{}, false, obs.Phases{}, nil, ctx.Err()
		}
		if call.err != nil {
			// A context error is the *leader's* cancellation, not ours: its
			// job was deleted while this one is still live, so retake the
			// flight (or hit the cache) instead of inheriting the error and
			// cancelling an unrelated job.
			if (errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				goto joinFlight
			}
			return stats.Report{}, false, obs.Phases{}, nil, call.err
		}
		r.shared.Add(1)
		r.hits.Add(1)
		mCacheShared.Inc()
		mCacheHits.Inc()
		// A private copy, so no two callers alias one report's maps.
		return StoredForm(call.rep), true, obs.Phases{}, nil, nil
	}
	call := &flightCall{key: key, done: make(chan struct{})}
	r.flight[key] = call
	r.mu.Unlock()

	// A prior leader may have finished between our cache miss and taking
	// flight leadership; its write lands before its flight entry is
	// removed, so re-checking the cache here closes that window.
	if rep, ok := r.Cache.Get(key); ok {
		r.hits.Add(1)
		mCacheHits.Inc()
		call.rep = rep
		r.endFlight(call)
		return rep, true, obs.Phases{}, nil, nil
	}

	rep, ph, err := r.simulate(ctx, c, started)
	if err != nil {
		call.err = err
		r.endFlight(call)
		return stats.Report{}, false, obs.Phases{}, nil, err
	}
	call.rep = rep
	return rep, false, ph, call, nil
}

// simulate executes the cell under the process-wide concurrency cap. The
// miss counter is bumped only once a slot is held: a cell abandoned by
// cancellation while queued for a slot never simulated, and Stats.Misses
// documents "misses that ran a simulation". The phase split is measured
// by core.Run; a fake RunFn is opaque, so its phases stay zero and only
// the cell's wall time is observable. started, when non-nil, is called
// once the slot is held and before core.Run.
//
// core.Run builds the platform into a pooled core.RunState, so
// consecutive cells on one worker reuse the previous cell's device arrays
// and arenas instead of reallocating them. Reports are value snapshots,
// so releasing the state after the run never aliases a returned report.
func (r *Runner) simulate(ctx context.Context, c Cell, started func()) (stats.Report, obs.Phases, error) {
	if c.Exec == config.ExecAnalytical {
		return r.estimate(ctx, c)
	}
	if err := r.acquire(ctx); err != nil {
		return stats.Report{}, obs.Phases{}, err
	}
	defer r.release()
	r.misses.Add(1)
	mCacheMisses.Inc()
	if r.fakes(&c) {
		rep, err := r.RunFn(c.Config, c.Workload)
		return rep, obs.Phases{}, err
	}
	w, ok := c.definition()
	if !ok {
		return stats.Report{}, obs.Phases{}, fmt.Errorf("batch: unknown workload %q (Table II names: %v)",
			c.Workload, config.WorkloadNames())
	}
	if started != nil {
		started()
	}
	st := core.AcquireRunState()
	defer core.ReleaseRunState(st)
	return core.Run(st, c.Config, w, c.Variant)
}

// fakes reports whether RunFn runs the cell. A cell with an inline
// definition or a variant always simulates: RunFn sees only the workload
// *name*, so it would run the Table II namesake's default cell while the
// cache keyed on what the cell actually says.
func (r *Runner) fakes(c *Cell) bool {
	return r.RunFn != nil && c.WorkloadDef == nil && c.Variant == core.DefaultRun
}

// estimate resolves an analytical cell through the closed-form twin. The
// twin takes the same inputs a simulation would — resolved config plus a
// workload definition — and models none of the run variants, so a variant
// cell is rejected rather than estimated as the default run under its
// variant's key. Estimates still take a simulation slot and count as
// misses: the accounting invariant is "misses computed a result here", not
// "misses ran the event loop", and a slot held for ~20µs costs nothing.
func (r *Runner) estimate(ctx context.Context, c Cell) (stats.Report, obs.Phases, error) {
	if c.Variant != core.DefaultRun {
		return stats.Report{}, obs.Phases{}, fmt.Errorf("batch: analytical mode cannot evaluate run variant %q; variants are DES-only", c.Variant)
	}
	w, ok := c.definition()
	if !ok {
		return stats.Report{}, obs.Phases{}, fmt.Errorf("batch: analytical mode: unknown workload %q", c.Workload)
	}
	if err := r.acquire(ctx); err != nil {
		return stats.Report{}, obs.Phases{}, err
	}
	defer r.release()
	r.misses.Add(1)
	mCacheMisses.Inc()
	return twin.Estimate(&c.Config, w), obs.Phases{}, nil
}
