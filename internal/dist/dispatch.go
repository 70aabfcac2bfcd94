package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Default protocol cadence. Tests shrink these aggressively; production
// values only need to be small relative to a cell's simulation time.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultLeasePoll   = 10 * time.Second
	DefaultMaxAttempts = 3
)

// localHolder is the pseudo worker-id marking a cell executing on the
// coordinator's own runner. Local leases never expire (the process that
// would time them out is the process running them) and are never stolen.
const localHolder = "local"

// Dispatcher is the coordinator-side Executor: cells enter a FIFO queue,
// registered workers lease them over HTTP and ship reports back, and the
// coordinator's own runner optionally consumes from the same queue (so a
// coordinator with no workers degrades to exactly the single-process
// path). Leases carry deadlines; a worker that stops heartbeating has its
// cells requeued, an idle worker may steal a long-running cell (duplicate
// execution is safe — results are content-addressed and deterministic,
// first completion wins), and every returned report is inserted into the
// runner's cache so warm reruns answer locally no matter who computed
// what.
//
// One Dispatcher serves every job in the process, which preserves the
// single-flight guarantee across jobs: two jobs requesting the same cell
// key share one task, one lease, one simulation.
type Dispatcher struct {
	// Runner supplies the shared result cache, the local execution slots
	// and the analytical cells' local path.
	Runner *batch.Runner
	// LeaseTTL is how long a lease survives without a heartbeat; 0 means
	// DefaultLeaseTTL. Set before the first use.
	LeaseTTL time.Duration
	// LeasePoll bounds the lease long poll; 0 means DefaultLeasePoll.
	LeasePoll time.Duration
	// LocalSlots is how many cells the coordinator itself runs
	// concurrently alongside remote workers: 0 means the runner's own
	// worker count (standalone coordinators keep full local throughput),
	// negative disables local execution (pure dispatch).
	LocalSlots int
	// MaxAttempts bounds lease grants per cell before the cell fails; 0
	// means DefaultMaxAttempts. Expired leases and worker-reported errors
	// both consume attempts.
	MaxAttempts int
	// StealAfter is how long a cell must be leased before an idle worker
	// may steal a duplicate lease; 0 means LeaseTTL/2.
	StealAfter time.Duration
	// Logger, when non-nil, receives structured protocol events (worker
	// lifecycle, lease expiry, requeues, steals, version skew).
	Logger *slog.Logger

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	closeCtx  context.Context    // cancelled by Close
	closeStop context.CancelFunc // pairs with closeCtx
	bg        sync.WaitGroup

	mu      sync.Mutex
	wake    chan struct{} // closed and replaced whenever pending grows
	seq     uint64
	wseq    uint64
	workers map[string]*workerState
	pending []*task // FIFO; a dropped task's entry stays until popped
	tasks   map[string]*task
	byKey   map[string]*task

	leased     atomic.Uint64
	remoteDone atomic.Uint64
	requeued   atomic.Uint64
	stolen     atomic.Uint64
	expired    atomic.Uint64
}

// log returns the dispatcher's logger, or the no-op logger.
func (d *Dispatcher) log() *slog.Logger { return obs.Or(d.Logger) }

// workerState is the coordinator's view of one registered worker. (The
// worker's advertised capacity shapes its own lease requests; the
// coordinator does not track it.)
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	leases   map[string]*task // task id -> task
}

// lease is one grant of a task to a holder.
type lease struct {
	deadline time.Time
	granted  time.Time
}

// task is one cell awaiting a result, shared by every job that wants its
// key (single-flight across jobs).
type task struct {
	id       string
	key      string
	cell     batch.Cell
	attempts int
	queued   bool
	leases   map[string]lease // holder id -> lease
	waiters  []waiter
}

// waiter is one (job, cell index) slot awaiting a task's result; joined
// is when the job asked for the cell, where its wall time starts.
type waiter struct {
	call   *callState
	idx    int
	joined time.Time
}

// callState is one RunContext invocation in flight.
type callState struct {
	ctx      context.Context
	reports  []stats.Report
	errs     []error
	progress batch.Progress

	mu        sync.Mutex
	completed int
	total     int
	wg        sync.WaitGroup
}

// resolve records one cell's report and feeds its outcome to the
// progress callback. Progress mirrors Runner.RunContext: serialized, done
// strictly increasing, failed/abandoned cells never reported.
func (c *callState) resolve(idx int, rep stats.Report, o batch.Outcome) {
	c.mu.Lock()
	c.reports[idx] = rep
	if c.progress != nil {
		c.completed++
		c.progress(c.completed, c.total, o)
	}
	c.mu.Unlock()
	c.wg.Done()
}

// fail records a cell that failed, was abandoned or never dispatched
// (context already done, unkeyable cell).
func (c *callState) fail(idx int, err error) {
	c.mu.Lock()
	c.errs[idx] = err
	c.mu.Unlock()
	c.wg.Done()
}

// NewDispatcher returns a Dispatcher executing on (and caching through)
// the given runner. Tune the exported fields before first use.
func NewDispatcher(r *batch.Runner) *Dispatcher {
	ctx, stop := context.WithCancel(context.Background())
	return &Dispatcher{
		Runner:    r,
		stopCh:    make(chan struct{}),
		closeCtx:  ctx,
		closeStop: stop,
		wake:      make(chan struct{}),
		workers:   make(map[string]*workerState),
		tasks:     make(map[string]*task),
		byKey:     make(map[string]*task),
	}
}

func (d *Dispatcher) leaseTTL() time.Duration {
	if d.LeaseTTL > 0 {
		return d.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (d *Dispatcher) leasePoll() time.Duration {
	if d.LeasePoll > 0 {
		return d.LeasePoll
	}
	return DefaultLeasePoll
}

func (d *Dispatcher) maxAttempts() int {
	if d.MaxAttempts > 0 {
		return d.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (d *Dispatcher) stealAfter() time.Duration {
	if d.StealAfter > 0 {
		return d.StealAfter
	}
	return d.leaseTTL() / 2
}

// start launches the expiry scanner and the local consumers on first use.
func (d *Dispatcher) start() {
	d.startOnce.Do(func() {
		slots := d.LocalSlots
		if slots == 0 {
			slots = d.Runner.Workers
			if slots <= 0 {
				slots = defaultLocalSlots()
			}
		}
		for i := 0; i < slots; i++ {
			d.bg.Add(1)
			go d.localConsumer()
		}
		d.bg.Add(1)
		go d.scanner()
	})
}

// Close stops the background goroutines and fails every outstanding cell.
// Jobs already draining resolve with ErrStopped. Local cells queued for a
// simulation slot abort immediately; a cell already simulating runs to
// completion first (the event core is not interruptible), exactly like
// the in-process drain.
func (d *Dispatcher) Close() {
	d.start() // so bg.Wait below has matching Adds even if never used
	d.stopOnce.Do(func() {
		close(d.stopCh)
		d.closeStop()
		d.mu.Lock()
		var ws []waiter
		for _, t := range d.tasks {
			ws = append(ws, d.dropLocked(t)...)
		}
		d.wakeAllLocked()
		d.mu.Unlock()
		for _, w := range ws {
			w.call.fail(w.idx, ErrStopped)
		}
	})
	d.bg.Wait()
}

// ErrStopped fails cells abandoned by Dispatcher.Close.
var ErrStopped = fmt.Errorf("dist: dispatcher stopped")

// Counters is a snapshot of dispatcher traffic: logged by ohmserve at
// drain, asserted on by the fault-injection tests. The process-wide
// ohm_dist_* metrics carry the rest.
type Counters struct {
	Leased          uint64 `json:"leased"`
	RemoteCompleted uint64 `json:"remote_completed"`
	Requeued        uint64 `json:"requeued"`
	Stolen          uint64 `json:"stolen"`
	Expired         uint64 `json:"expired"`
}

// Stats snapshots the counters.
func (d *Dispatcher) Stats() Counters {
	return Counters{
		Leased:          d.leased.Load(),
		RemoteCompleted: d.remoteDone.Load(),
		Requeued:        d.requeued.Load(),
		Stolen:          d.stolen.Load(),
		Expired:         d.expired.Load(),
	}
}

// WorkerCount reports how many workers are currently registered.
func (d *Dispatcher) WorkerCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers)
}

var _ batch.Executor = (*Dispatcher)(nil)

// RunContext executes cells with Runner.RunContext's contract: reports
// positionally aligned, progress serialized, the error of the
// lowest-indexed failing cell, drain-on-cancel. Simulated cells go
// through the distributed queue (local consumers and remote workers race
// for them); analytical cells resolve on the local runner.
func (d *Dispatcher) RunContext(ctx context.Context, cells []batch.Cell, progress batch.Progress) ([]stats.Report, error) {
	d.start()
	call := &callState{
		ctx:      ctx,
		reports:  make([]stats.Report, len(cells)),
		errs:     make([]error, len(cells)),
		progress: progress,
		total:    len(cells),
	}
	call.wg.Add(len(cells))
	for i := range cells {
		c := cells[i]
		if err := ctx.Err(); err != nil {
			call.fail(i, err)
			continue
		}
		if c.Exec == config.ExecAnalytical {
			// A ~20us estimate costs less than one round trip of
			// lease-queue transport, so analytical cells run on the local
			// runner, which still gives them the cache and single-flight.
			go func(i int, c batch.Cell) {
				if rep, o, err := d.Runner.RunCell(ctx, c); err != nil {
					call.fail(i, err)
				} else {
					call.resolve(i, rep, o)
				}
			}(i, c)
			continue
		}
		key, err := c.Key()
		if err != nil {
			call.fail(i, err)
			continue
		}
		hitStart := time.Now()
		if rep, ok := d.cacheGet(key); ok {
			mDistCacheHits.Inc()
			// The runner never saw this cell, so fold the hit into its
			// counters here — otherwise ohm_cells_completed{mode} and the
			// healthz cache stats under-report versus a single-process run
			// of the same sweep.
			d.Runner.NoteExternalResolve(c.Exec, false)
			call.resolve(i, rep, batch.Outcome{Hit: true, Wall: time.Since(hitStart)})
			continue
		}
		d.submit(call, i, key, c)
	}

	done := make(chan struct{})
	go func() { call.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Revoke this job's claim on every unfinished cell. Queued cells
		// leave the queue; remotely leased cells have their leases
		// revoked (the worker learns on its next heartbeat or complete);
		// locally simulating cells run to completion in the background
		// and still land in the cache — but nothing blocks on them.
		d.detach(call)
		<-done
	}

	for i, err := range call.errs {
		if err != nil {
			return nil, fmt.Errorf("dist: cell %d (%s): %w", i, cells[i], err)
		}
	}
	return call.reports, nil
}

// cacheGet reads the runner's cache if it has one.
func (d *Dispatcher) cacheGet(key string) (stats.Report, bool) {
	if d.Runner.Cache == nil {
		return stats.Report{}, false
	}
	return d.Runner.Cache.Get(key)
}

// submit enqueues one cell, joining an existing task when another job is
// already waiting on the same key.
func (d *Dispatcher) submit(call *callState, idx int, key string, c batch.Cell) {
	w := waiter{call, idx, time.Now()}
	d.mu.Lock()
	if t, ok := d.byKey[key]; ok {
		t.waiters = append(t.waiters, w)
		d.mu.Unlock()
		return
	}
	d.seq++
	t := &task{
		id:      fmt.Sprintf("cell-%08d", d.seq),
		key:     key,
		cell:    c,
		queued:  true,
		leases:  make(map[string]lease, 1),
		waiters: []waiter{w},
	}
	d.tasks[t.id] = t
	d.byKey[key] = t
	d.pending = append(d.pending, t)
	d.wakeAllLocked()
	d.mu.Unlock()
}

// wakeAllLocked signals everyone blocked on queue growth. Callers hold mu.
func (d *Dispatcher) wakeAllLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// detach resolves every unfinished waiter of a cancelled call with the
// context error. A task nobody waits on anymore is dropped: if it was
// queued it leaves the queue, and if it was leased the lease is revoked —
// the holding worker learns through its next heartbeat or completion,
// whose report is then dropped (with the task gone there is no trusted
// key left to admit it to the cache under). Cells the coordinator itself
// is already simulating are the exception: they run to completion on the
// local runner and land in the cache like the in-process drain.
func (d *Dispatcher) detach(call *callState) {
	err := call.ctx.Err()
	if err == nil {
		return
	}
	d.mu.Lock()
	var resolves []waiter
	for _, t := range d.tasks {
		kept := t.waiters[:0]
		for _, w := range t.waiters {
			if w.call == call {
				resolves = append(resolves, w)
			} else {
				kept = append(kept, w)
			}
		}
		t.waiters = kept
		if len(t.waiters) == 0 {
			d.dropLocked(t)
		}
	}
	d.mu.Unlock()
	for _, w := range resolves {
		w.call.fail(w.idx, err)
	}
}

// dropLocked removes a task from the dispatcher — the task indexes, the
// queue and every holder's lease table — and returns its waiters for the
// caller to resolve outside the lock. A holder still running it learns
// through its next heartbeat or completion. Callers hold mu.
func (d *Dispatcher) dropLocked(t *task) []waiter {
	delete(d.tasks, t.id)
	delete(d.byKey, t.key)
	t.queued = false // popLocked skips its queue entry
	for holder := range t.leases {
		if w := d.workers[holder]; w != nil {
			delete(w.leases, t.id)
		}
	}
	ws := t.waiters
	t.waiters = nil
	return ws
}

// take drops a live task and returns its waiters; live is false when the
// task already finished.
func (d *Dispatcher) take(t *task) (ws []waiter, live bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tasks[t.id] != t {
		return nil, false
	}
	return d.dropLocked(t), true
}

// fail ends a live task with err, failing every job waiting on it.
func (d *Dispatcher) fail(t *task, err error) {
	ws, live := d.take(t)
	if !live {
		return
	}
	mDistFailed.Inc()
	d.log().Error("dist: cell failed", obs.KeyTaskID, t.id, obs.KeyCell, t.cell.String(), "err", err)
	for _, w := range ws {
		w.call.fail(w.idx, err)
	}
}

// finalize completes a live task: each waiting job receives a private
// copy of the report and an outcome. The first waiter's outcome is the
// executing side's (its phases shipped over the wire for remote cells);
// waiters beyond the first shared the result, exactly like the runner's
// single-flight followers, so theirs is a hit. Each waiter's wall time
// runs from when its job asked for the cell, queueing and transport
// included.
func (d *Dispatcher) finalize(t *task, rep stats.Report, o batch.Outcome) {
	ws, live := d.take(t)
	if !live {
		return
	}
	now := time.Now()
	for i, w := range ws {
		if i == 0 {
			o.Wall = now.Sub(w.joined)
			w.call.resolve(w.idx, rep, o)
			continue
		}
		// Piggyback waiters resolve without the runner ever seeing their
		// cell; count them as shared hits so the mode-split completion
		// counter matches what a single-process run of the same cells
		// would report. The first waiter is counted where the work
		// happened: locally by runCell, remotely by the worker's own
		// runner. rep is already a stored form, so decoding a copy of
		// it gives each later waiter maps of its own.
		d.Runner.NoteExternalResolve(t.cell.Exec, true)
		w.call.resolve(w.idx, batch.StoredForm(rep), batch.Outcome{Hit: true, Remote: o.Remote, Wall: now.Sub(w.joined)})
	}
}

// localConsumer pulls queued tasks and runs them on the coordinator's own
// runner — the degenerate "cluster of one" path, and the safety net that
// keeps jobs finishing when no worker ever joins.
func (d *Dispatcher) localConsumer() {
	defer d.bg.Done()
	for {
		t := d.takeLocal()
		if t == nil {
			return
		}
		// closeCtx, not a job context: a leased cell runs to completion
		// (and lands in the cache) even if every waiting job is cancelled
		// meanwhile — identical to the in-process drain semantics — but
		// Close aborts cells still queued for a simulation slot.
		rep, o, err := d.Runner.RunCell(d.closeCtx, t.cell)
		if err != nil {
			d.fail(t, err)
			continue
		}
		mLocalCompleted.Inc()
		d.finalize(t, rep, o)
	}
}

// takeLocal blocks until a task is available (leasing it to the local
// holder) or the dispatcher stops.
func (d *Dispatcher) takeLocal() *task {
	for {
		d.mu.Lock()
		// Local execution cannot be lost with the coordinator alive, so
		// the lease never expires.
		t := d.popLocked(localHolder, 100*365*24*time.Hour)
		ch := d.wake
		d.mu.Unlock()
		if t != nil {
			return t
		}
		select {
		case <-ch:
		case <-d.stopCh:
			return nil
		}
	}
}

// popLocked leases the head of the queue to holder for ttl, spending one
// of the task's attempts; nil when the queue is empty. Entries of tasks
// dropped while queued are discarded on the way: leaving them to be
// popped keeps a drop O(1), where splicing each one out would make
// cancelling a job with n queued cells cost O(n²). Callers hold mu.
func (d *Dispatcher) popLocked(holder string, ttl time.Duration) *task {
	for len(d.pending) > 0 {
		t := d.pending[0]
		d.pending = d.pending[1:]
		if !t.queued {
			continue
		}
		t.queued = false
		t.attempts++
		d.grantLocked(t, holder, ttl)
		return t
	}
	return nil
}

// grantLocked records a lease of t to holder expiring after ttl. A lease
// to a registered worker also enters the worker's lease table and the
// lease counters; the coordinator's own local lease does neither. Callers
// hold mu.
func (d *Dispatcher) grantLocked(t *task, holder string, ttl time.Duration) {
	now := time.Now()
	t.leases[holder] = lease{deadline: now.Add(ttl), granted: now}
	if w := d.workers[holder]; w != nil {
		w.leases[t.id] = t
		d.leased.Add(1)
		mLeasesGranted.Inc()
	}
}

// scanner expires leases, requeues orphaned cells and forgets workers
// that stopped talking.
func (d *Dispatcher) scanner() {
	defer d.bg.Done()
	tick := d.leaseTTL() / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			d.sweepExpired(time.Now())
		case <-d.stopCh:
			return
		}
	}
}

// sweepExpired is one scanner pass.
func (d *Dispatcher) sweepExpired(now time.Time) {
	var after []func()
	d.mu.Lock()
	// Workers silent for several lease lifetimes are gone: requeue
	// everything they hold and drop them (a re-appearing worker simply
	// re-registers).
	for id, w := range d.workers {
		if now.Sub(w.lastSeen) > 3*d.leaseTTL() {
			for _, t := range w.leases {
				delete(t.leases, id)
			}
			delete(d.workers, id)
			mWorkersConnected.Dec()
			d.log().Warn("dist: worker silent past timeout, forgotten",
				obs.KeyWorkerID, id, obs.KeyWorker, w.name, "last_seen", now.Sub(w.lastSeen).String())
		}
	}
	for _, t := range d.tasks {
		for holder, l := range t.leases {
			if now.After(l.deadline) {
				delete(t.leases, holder)
				if w := d.workers[holder]; w != nil {
					delete(w.leases, t.id)
				}
				d.expired.Add(1)
				mLeasesExpired.Inc()
				d.log().Warn("dist: lease expired",
					obs.KeyTaskID, t.id, obs.KeyWorkerID, holder, obs.KeyCell, t.cell.String())
			}
		}
		d.orphanLocked(t, nil, &after)
	}
	d.mu.Unlock()
	for _, fn := range after {
		fn()
	}
}

// orphanLocked settles a task that is still registered but neither leased
// nor queued — its last lease expired, its worker left, or its worker
// reported an error — and leaves any other task alone. Waiters whose job
// was cancelled are dropped first. Then a task nobody waits on is dropped,
// a task out of attempts fails with cause (or, when cause is nil, an
// attempts-exhausted error), and any other task goes back in the queue.
// Work that must run outside the lock is appended to after. Callers hold
// mu.
func (d *Dispatcher) orphanLocked(t *task, cause error, after *[]func()) {
	if d.tasks[t.id] != t || len(t.leases) > 0 || t.queued {
		return
	}
	kept := t.waiters[:0]
	for _, w := range t.waiters {
		if err := w.call.ctx.Err(); err != nil {
			*after = append(*after, func() { w.call.fail(w.idx, err) })
		} else {
			kept = append(kept, w)
		}
	}
	t.waiters = kept
	switch {
	case len(t.waiters) == 0:
		d.dropLocked(t)
	case t.attempts >= d.maxAttempts():
		if cause == nil {
			cause = fmt.Errorf("dist: cell failed after %d lease attempts (workers lost or cell erroring)", t.attempts)
		}
		*after = append(*after, func() { d.fail(t, cause) })
	default:
		d.requeued.Add(1)
		mRequeuedCells.Inc()
		d.log().Info("dist: cell requeued", obs.KeyTaskID, t.id, "attempts", t.attempts)
		t.queued = true
		d.pending = append(d.pending, t)
		d.wakeAllLocked()
	}
}

// --- worker-facing operations (driven by the HTTP handlers) ---

// ErrUnknownWorker rejects calls naming an unregistered (or expired)
// worker id; the worker's recovery is to re-register.
var ErrUnknownWorker = fmt.Errorf("dist: unknown worker")

// RegisterWorker admits a worker and returns its id plus the protocol
// cadence.
func (d *Dispatcher) RegisterWorker(name string, capacity int) RegisterResponse {
	d.start()
	_ = capacity // advertised for logs; lease requests carry the real bound
	d.mu.Lock()
	d.wseq++
	id := fmt.Sprintf("w-%04d", d.wseq)
	d.workers[id] = &workerState{
		id:       id,
		name:     name,
		lastSeen: time.Now(),
		leases:   make(map[string]*task),
	}
	d.mu.Unlock()
	mWorkersConnected.Inc()
	d.log().Info("dist: worker registered",
		obs.KeyWorkerID, id, obs.KeyWorker, name, "capacity", capacity)
	ttl := d.leaseTTL()
	return RegisterResponse{
		WorkerID:        id,
		LeaseTTLMillis:  ttl.Milliseconds(),
		HeartbeatMillis: (ttl / 3).Milliseconds(),
	}
}

// Deregister removes a worker, requeuing everything it holds — the
// graceful goodbye a SIGTERM'd worker sends so its in-flight cells
// reschedule immediately instead of waiting out their leases.
func (d *Dispatcher) Deregister(id string) error {
	var after []func()
	d.mu.Lock()
	w, ok := d.workers[id]
	if !ok {
		d.mu.Unlock()
		return ErrUnknownWorker
	}
	delete(d.workers, id)
	mWorkersConnected.Dec()
	for _, t := range w.leases {
		delete(t.leases, id)
		d.orphanLocked(t, nil, &after)
	}
	d.mu.Unlock()
	d.log().Info("dist: worker deregistered",
		obs.KeyWorkerID, id, obs.KeyWorker, w.name, "requeuing", len(w.leases))
	for _, fn := range after {
		fn()
	}
	return nil
}

// Lease grants up to max pending cells to the worker. With the queue
// empty it attempts to steal: a cell leased elsewhere for longer than
// StealAfter gets a duplicate lease (capped at two holders), so an idle
// worker shortens the tail of a sweep instead of idling behind a slow or
// dying peer.
func (d *Dispatcher) Lease(id string, max int) ([]WireCell, error) {
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	ttl := d.leaseTTL()
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	var out []WireCell
	for len(out) < max {
		t := d.popLocked(id, ttl)
		if t == nil {
			break
		}
		out = append(out, wireCell(t.id, t.key, t.cell))
	}
	if len(out) > 0 {
		return out, nil
	}
	// Work stealing: nothing pending, so look for the longest-leased cell
	// held only by other remote workers.
	var victim *task
	var oldest time.Time
	for _, t := range d.tasks {
		if t.queued || len(t.leases) == 0 || len(t.leases) >= 2 {
			continue
		}
		if _, mine := t.leases[id]; mine {
			continue
		}
		if _, local := t.leases[localHolder]; local {
			continue
		}
		granted := time.Time{}
		for _, l := range t.leases {
			if granted.IsZero() || l.granted.Before(granted) {
				granted = l.granted
			}
		}
		if now.Sub(granted) < d.stealAfter() {
			continue
		}
		if victim == nil || granted.Before(oldest) {
			victim, oldest = t, granted
		}
	}
	if victim != nil {
		d.grantLocked(victim, id, ttl)
		d.stolen.Add(1)
		mLeasesStolen.Inc()
		d.log().Info("dist: lease stolen",
			obs.KeyTaskID, victim.id, obs.KeyWorkerID, id, "leased_for", now.Sub(oldest).String())
		out = append(out, wireCell(victim.id, victim.key, victim.cell))
	}
	return out, nil
}

// Complete accepts one finished cell from a worker. The report is
// inserted into the cache only after the claimed key is checked against
// the dispatched task's key: the cache answers every future job without
// re-simulating, so nothing unverifiable (unknown workers, dead tasks,
// mismatched keys) may ever write to it.
func (d *Dispatcher) Complete(id string, req CompleteRequest) (CompleteResponse, error) {
	d.mu.Lock()
	w, wok := d.workers[id]
	if wok {
		w.lastSeen = time.Now()
		delete(w.leases, req.TaskID)
	}
	t, live := d.tasks[req.TaskID]
	if live {
		delete(t.leases, id)
	}
	d.mu.Unlock()
	if !wok {
		return CompleteResponse{}, ErrUnknownWorker
	}
	if !live {
		// Lease long gone (cancelled, expired-and-refinished, stolen):
		// without the task there is no trusted key to check the report
		// against, so it is dropped, not cached.
		return CompleteResponse{Accepted: false, Revoked: true}, nil
	}

	if req.Error != "" {
		d.log().Warn("dist: worker reported cell error",
			obs.KeyWorkerID, id, obs.KeyTaskID, req.TaskID, "err", req.Error)
		var after []func()
		d.mu.Lock()
		// A task whose stolen copy still runs elsewhere keeps a lease and
		// is left alone: this failure may be the dying holder's, not the
		// cell's.
		d.orphanLocked(t, fmt.Errorf("dist: worker %s: %s", id, req.Error), &after)
		d.mu.Unlock()
		for _, fn := range after {
			fn()
		}
		return CompleteResponse{Accepted: true}, nil
	}
	if req.Report == nil {
		return CompleteResponse{}, pathError("complete %s: neither report nor error", req.TaskID)
	}
	if req.Key != t.key {
		// A worker answering with a different content address computed a
		// different cell than we dispatched — version skew. Fail loudly,
		// and above all do not let the report anywhere near the cache.
		mVersionSkew.Inc()
		d.log().Error("dist: version skew refusal",
			obs.KeyWorkerID, id, obs.KeyTaskID, t.id, "got_key", req.Key[:min(12, len(req.Key))], "want_key", t.key[:12])
		d.fail(t, pathError("worker %s returned key %.12s for cell keyed %.12s (binary version skew?)", id, req.Key, t.key))
		return CompleteResponse{Accepted: false}, nil
	}
	norm := d.Runner.Store(t.key, *req.Report)
	d.remoteDone.Add(1)
	mRemoteCompleted.Inc()
	mWorkerCells.With(workerLabel(w)).Inc()
	o := batch.Outcome{Hit: req.CacheHit, Remote: true}
	if req.Phases != nil {
		o.Phases = *req.Phases
	}
	d.finalize(t, norm, o)
	return CompleteResponse{Accepted: true}, nil
}

// Heartbeat marks the worker alive and extends the leases it still holds,
// returning the ids whose leases are gone (cancelled or reassigned) so
// the worker can abandon them.
func (d *Dispatcher) Heartbeat(id string, taskIDs []string) ([]string, error) {
	now := time.Now()
	ttl := d.leaseTTL()
	mHeartbeats.Inc()
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	var revoked []string
	for _, tid := range taskIDs {
		t, live := d.tasks[tid]
		if !live {
			revoked = append(revoked, tid)
			continue
		}
		if _, mine := t.leases[id]; !mine {
			revoked = append(revoked, tid)
			continue
		}
		t.leases[id] = lease{deadline: now.Add(ttl), granted: t.leases[id].granted}
	}
	return revoked, nil
}

// WakeCh returns the channel closed on the next queue growth; the lease
// long poll selects on it. Callers must treat it as single-use.
func (d *Dispatcher) wakeCh() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wake
}
