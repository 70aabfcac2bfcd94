// Package serve turns the batch sweep engine into a long-running,
// multi-tenant simulation service: submitted jobs enter a bounded FIFO
// queue, a fixed worker pool executes them on one process-wide
// batch.Runner — whose result cache, concurrency cap and single-flight
// table are shared across jobs, so two jobs requesting the same cell
// simulate it once and a warm request answers entirely from cache — and
// every job can be cancelled individually or drained together on
// shutdown. cmd/ohmserve exposes the manager over HTTP.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stats"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is the submission body of POST /v1/sweeps: a raw sweep spec, a
// single scenario document, or a registered experiment id plus parameters —
// exactly one.
type Request struct {
	// Experiment names a driver from the internal/experiments registry.
	Experiment string `json:"experiment,omitempty"`
	// Params parameterizes the experiment driver.
	Params experiments.Params `json:"params,omitempty"`
	// Spec is a raw sweep over the evaluation grid (cmd/ohmbatch's shape).
	Spec *batch.SweepSpec `json:"spec,omitempty"`
	// Scenario is one declarative scenario document ({preset, mode,
	// overrides, workload} — the ohmsim -spec shape); it runs as a one-cell
	// sweep with the same cache key every other entry point produces.
	Scenario *config.Spec `json:"scenario,omitempty"`
	// Optimize is an optimizer job: a search over declared override axes
	// (POST /v1/optimize's body, also accepted here).
	Optimize *search.Spec `json:"optimize,omitempty"`
}

// Kind returns "experiment", "sweep" or "optimize".
func (r Request) Kind() string {
	if r.Optimize != nil {
		return "optimize"
	}
	if r.Spec != nil || r.Scenario != nil {
		return "sweep"
	}
	return "experiment"
}

// prepare validates and canonicalizes the request: it must name exactly
// one runnable thing, the experiment id takes its registry spelling, a
// scenario becomes its one-cell sweep, and sweep specs are expanded and
// per-cell validated. Bad override paths, unknown presets and malformed
// workloads thus get a 400 naming the offending path at submission rather
// than a failed job later. The returned cells exist for
// validation only; Submit drops them (see its comment).
func (r Request) prepare() (Request, []batch.Cell, error) {
	n := 0
	if r.Experiment != "" {
		n++
	}
	if r.Spec != nil {
		n++
	}
	if r.Scenario != nil {
		n++
	}
	if r.Optimize != nil {
		n++
	}
	if n != 1 {
		return r, nil, errors.New("serve: request must carry exactly one of \"experiment\", \"spec\", \"scenario\" or \"optimize\"")
	}
	if r.Optimize != nil {
		if err := r.Optimize.Validate(); err != nil {
			return r, nil, fmt.Errorf("serve: %w", err)
		}
		return r, nil, nil
	}
	if r.Experiment != "" {
		// Canonicalize the id (Lookup is case-insensitive) so the job's
		// status and result document carry the registry spelling — the
		// result must stay byte-identical to `ohmfig -json <id>`.
		d, ok := experiments.Lookup(r.Experiment)
		if !ok {
			return r, nil, fmt.Errorf("serve: unknown experiment %q", r.Experiment)
		}
		r.Experiment = d.ID
		return r, nil, nil
	}
	if r.Scenario != nil {
		spec, err := batch.ScenarioSpec(*r.Scenario)
		if err != nil {
			return r, nil, fmt.Errorf("serve: %w", err)
		}
		r.Spec = &spec
	}
	cells, err := r.Spec.Cells()
	if err != nil {
		return r, nil, fmt.Errorf("serve: %w", err)
	}
	for _, c := range cells {
		if err := c.Config.Validate(); err != nil {
			return r, nil, fmt.Errorf("serve: cell %d (%s): %w", c.Index, c, err)
		}
	}
	return r, cells, nil
}

// admissionUnits is what a request charges against tenant quota: the
// expanded cell count for sweeps, the planned twin evaluations for
// optimizer jobs, 0 for experiment jobs (their totals grow as the driver
// runs).
func (r Request) admissionUnits(cells []batch.Cell) int {
	if r.Optimize != nil {
		return r.Optimize.PlannedEvaluations()
	}
	return len(cells)
}

// Status is a job's externally visible state, served by GET /v1/jobs/{id}.
// Cell counters give per-cell progress: CellsDone out of CellsTotal, split
// into CacheHits (served from the result cache or a shared in-flight
// simulation) and Simulated (fresh runs). For experiment jobs CellsTotal
// grows as the driver submits successive batches; for sweep jobs it is
// fixed up front.
type Status struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Experiment string     `json:"experiment,omitempty"`
	Tenant     string     `json:"tenant,omitempty"`
	State      State      `json:"state"`
	CellsTotal int        `json:"cells_total"`
	CellsDone  int        `json:"cells_done"`
	CacheHits  int        `json:"cache_hits"`
	Simulated  int        `json:"simulated"`
	Error      string     `json:"error,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	// Replayed marks a job reconstructed from the journal after a
	// restart. Replayed terminal jobs keep their status but not their
	// result payload (see GET /v1/jobs/{id}/result's 410 contract).
	Replayed bool `json:"replayed,omitempty"`
	// Timing is the job's machine-readable time breakdown, present once
	// the job has started; durations are integer nanoseconds.
	Timing *Timing `json:"timing,omitempty"`
	// Optimize is the optimizer's phase-level progress (per-generation
	// counters), present while an optimize job runs and in its final
	// status.
	Optimize *search.Progress `json:"optimize,omitempty"`
}

// Timing answers "where did this job's time go" from GET /v1/jobs/{id}
// alone: queue wait, wall-clock run time, summed per-cell wall time
// (exceeds run time under parallelism; includes queueing and transport
// for remote cells), how many cells remote workers computed, and the
// per-phase split of simulated cells.
type Timing struct {
	QueueWait   time.Duration `json:"queue_wait_ns"`
	Run         time.Duration `json:"run_ns"`
	CellsWall   time.Duration `json:"cells_wall_ns"`
	RemoteCells int           `json:"remote_cells"`
	// AnalyticalCells counts cells resolved by the closed-form twin
	// rather than the event simulator.
	AnalyticalCells int        `json:"analytical_cells"`
	Phases          obs.Phases `json:"phases"`
}

// Job is one submitted unit of work and its (eventual) result.
type Job struct {
	id  string
	req Request
	// orig is the request exactly as the client submitted it, before
	// prepare canonicalized it. The journal stores this form: prepare
	// rejects an already-prepared request (a canonicalized scenario
	// carries both Scenario and Spec), so replay must re-prepare from
	// the original.
	orig Request
	// tenant is the admission-control identity the job bills against.
	tenant string
	// admCells is what Admit charged (sweep cell count; 0 for
	// experiment jobs, whose totals grow as the driver runs), returned
	// by Release when the job goes terminal.
	admCells int
	// replayed marks a job reconstructed from the journal.
	replayed bool
	// released guards double-release of admission quota (run vs
	// queued-cancel both reach terminal accounting). Guarded by mu.
	released bool

	mu         sync.Mutex
	state      State
	cancel     context.CancelFunc // set while running
	cellsTotal int
	cellsDone  int
	cacheHits  int
	simulated  int
	batchBase  int // cells completed in finished batches (experiment jobs)
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
	// cellTiming sums the outcomes of the job's resolved cells: the
	// Timing block without its queue wait and run time.
	cellTiming Timing

	// Results: sweep jobs keep cells+reports (for JSON and CSV rendering);
	// experiment jobs keep the driver's typed result; optimize jobs keep
	// the search result (frontier + decision log) and the latest
	// phase-level progress snapshot.
	cells       []batch.Cell
	reports     []stats.Report
	result      experiments.Result
	optResult   *search.Result
	optProgress *search.Progress
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:         j.id,
		Kind:       j.req.Kind(),
		Experiment: j.req.Experiment,
		Tenant:     j.tenant,
		Replayed:   j.replayed,
		State:      j.state,
		CellsTotal: j.cellsTotal,
		CellsDone:  j.cellsDone,
		CacheHits:  j.cacheHits,
		Simulated:  j.simulated,
		Error:      j.errMsg,
		Created:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
		tm := j.cellTiming
		tm.QueueWait = j.started.Sub(j.created)
		if !j.finished.IsZero() {
			tm.Run = j.finished.Sub(j.started)
		} else {
			tm.Run = time.Since(j.started)
		}
		s.Timing = &tm
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.optProgress != nil {
		p := *j.optProgress
		s.Optimize = &p
	}
	return s
}

var (
	// ErrQueueFull rejects a submission when the FIFO queue is at capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after shutdown began.
	ErrDraining = errors.New("serve: server is draining")
)

// Manager owns the job queue and worker pool.
type Manager struct {
	runner *batch.Runner

	// Retain bounds how many finished (done/failed/cancelled) jobs — and
	// their result payloads — stay queryable; the oldest are evicted
	// beyond it. <=0 means the default. Queued and running jobs are never
	// evicted. Set before the first Submit.
	Retain int

	// Executor runs every job's cells; nil means the in-process
	// batch.LocalExecutor over the shared runner. cmd/ohmserve installs
	// the dist.Dispatcher here so cells fan out to remote workers while
	// job semantics (progress, cancel, drain) stay identical. Set before
	// the first Submit.
	Executor batch.Executor

	// Logger, when non-nil, receives job lifecycle events (submitted,
	// started, finished) tagged with job ids. Set before the first Submit.
	Logger *slog.Logger

	// Journal, when non-nil, durably records job lifecycle so a restart
	// replays it (see Recover). Set before the first Submit.
	Journal *Journal

	// Admission, when non-nil, applies per-tenant rate limits and quota
	// caps to submissions. Set before the first Submit.
	Admission *Admission

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	started time.Time // for /v1/healthz uptime

	mu      sync.Mutex
	cond    *sync.Cond // signalled on queue activity and shutdown
	depth   int        // max pending jobs
	pending []*Job     // FIFO of queued jobs; cancellation splices out
	jobs    map[string]*Job
	order   []string
	seq     int
	closed  bool
}

// defaultRetain bounds finished-job history when Manager.Retain is unset:
// a long-running daemon must not grow memory with every job ever served.
const defaultRetain = 512

// NewManager starts workers goroutines executing jobs from a FIFO queue of
// depth queueDepth, all on the given shared runner. workers bounds how many
// jobs run concurrently; the runner's own worker cap bounds how many cells
// simulate concurrently across them.
func NewManager(runner *batch.Runner, workers, queueDepth int) *Manager {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		runner:  runner,
		baseCtx: ctx,
		stop:    stop,
		depth:   queueDepth,
		jobs:    make(map[string]*Job),
		started: time.Now(),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// executor resolves the cell executor, defaulting to in-process.
func (m *Manager) executor() batch.Executor {
	if m.Executor != nil {
		return m.Executor
	}
	return batch.LocalExecutor{Runner: m.runner}
}

// log returns the manager's logger, or the no-op logger.
func (m *Manager) log() *slog.Logger { return obs.Or(m.Logger) }

// Health is the liveness snapshot served by GET /v1/healthz: deployments
// probe it to decide whether the daemon is up and how loaded it is.
type Health struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsQueued    int     `json:"jobs_queued"`
	JobsRunning   int     `json:"jobs_running"`
	QueueCapacity int     `json:"queue_capacity"`
	Draining      bool    `json:"draining"`
	// WorkersConnected counts registered remote workers when the manager
	// executes through a distributing executor; absent otherwise.
	WorkersConnected *int `json:"workers_connected,omitempty"`
	// AnalyticalCells counts cells this process resolved in analytical
	// (closed-form twin) mode since startup; absent without a runner.
	AnalyticalCells *uint64 `json:"analytical_cells,omitempty"`
	// Cache summarizes the shared result cache; absent when the runner
	// has no cache.
	Cache *CacheHealth `json:"cache,omitempty"`
}

// CacheHealth is the result-cache summary inside /v1/healthz: size (when
// the cache can report it — disk_bytes is memory bytes for the in-memory
// cache) and the runner's traffic counters with a derived hit ratio.
type CacheHealth struct {
	// Entries and DiskBytes are -1 when the cache cannot report its size.
	Entries   int64   `json:"entries"`
	DiskBytes int64   `json:"disk_bytes"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Shared    uint64  `json:"shared"`
	PutErrors uint64  `json:"put_errors"`
	HitRatio  float64 `json:"hit_ratio"` // hits / (hits + misses); 0 with no traffic
}

// Health snapshots queue depth, running jobs and uptime.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(m.started).Seconds(),
		JobsQueued:    len(m.pending),
		QueueCapacity: m.depth,
		Draining:      m.closed,
	}
	if m.closed {
		h.Status = "draining"
	}
	// Lock order is m.mu before job.mu, the same as pruneFinishedLocked.
	for _, id := range m.order {
		if m.jobs[id].Status().State == StateRunning {
			h.JobsRunning++
		}
	}
	if wc, ok := m.Executor.(interface{ WorkerCount() int }); ok {
		n := wc.WorkerCount()
		h.WorkersConnected = &n
	}
	if m.runner != nil {
		n := m.runner.Stats().Analytical
		h.AnalyticalCells = &n
	}
	if m.runner != nil && m.runner.Cache != nil {
		rs := m.runner.Stats()
		ch := &CacheHealth{
			Entries:   -1,
			DiskBytes: -1,
			Hits:      rs.Hits,
			Misses:    rs.Misses,
			Shared:    rs.Shared,
			PutErrors: rs.PutErrors,
		}
		if total := rs.Hits + rs.Misses; total > 0 {
			ch.HitRatio = float64(rs.Hits) / float64(total)
		}
		if sc, ok := m.runner.Cache.(batch.StatCache); ok {
			cs := sc.CacheStats()
			ch.Entries, ch.DiskBytes = cs.Entries, cs.Bytes
		}
		h.Cache = ch
	}
	return h
}

// Submit validates and enqueues a job under the default tenant.
func (m *Manager) Submit(req Request) (*Job, error) {
	return m.SubmitAs(DefaultTenant, req)
}

// SubmitAs validates and enqueues a job billed to the given tenant. The
// expanded cell list prepare built for validation is deliberately
// dropped: a few hundred bytes of spec may expand to ~MaxCells cells,
// and pinning that on every queued job would amplify small submissions
// into resident memory — run() re-expands (microseconds) when the job
// actually starts.
func (m *Manager) SubmitAs(tenantName string, req Request) (*Job, error) {
	job, _, err := m.submit(tenantName, req)
	return job, err
}

// submit is SubmitAs that also returns the job's status read under m.mu at
// enqueue, which always says queued: a later Status call may already see a
// worker running the job, or done with it.
func (m *Manager) submit(tenantName string, req Request) (*Job, Status, error) {
	orig := req
	req, cells, err := req.prepare()
	if err != nil {
		return nil, Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, Status{}, ErrDraining
	}
	// Only live queued jobs count against the bound: cancelling a queued
	// job frees its slot immediately.
	if len(m.pending) >= m.depth {
		return nil, Status{}, ErrQueueFull
	}
	// Admission runs after the cheap structural checks so a full queue
	// answers 503 (server pressure) rather than charging tenant tokens.
	units := req.admissionUnits(cells)
	if err := m.Admission.Admit(tenantName, units); err != nil {
		return nil, Status{}, err
	}
	m.seq++
	job := &Job{
		id:       fmt.Sprintf("job-%06d", m.seq),
		req:      req,
		orig:     orig,
		tenant:   tenantName,
		admCells: units,
		state:    StateQueued,
		created:  time.Now().UTC(),
	}
	// Durably record the submission before it becomes visible: a job the
	// journal never saw would silently vanish on restart. On journal
	// failure the submission is refused whole (quota returned, seq burned).
	if m.Journal != nil {
		if err := m.Journal.Submit(job.id, tenantName, orig, job.created); err != nil {
			m.Admission.Release(tenantName, job.admCells)
			m.log().Error("journal append failed; submission refused",
				obs.KeyJobID, job.id, "err", err.Error())
			return nil, Status{}, err
		}
	}
	m.pending = append(m.pending, job)
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.cond.Signal()
	mJobsSubmitted.With(req.Kind()).Inc()
	mJobsQueued.Inc()
	m.log().Info("job submitted",
		obs.KeyJobID, job.id, "kind", req.Kind(), "experiment", req.Experiment,
		obs.KeyTenant, tenantName, "queued", len(m.pending))
	return job, job.Status(), nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job is cancelled immediately and its queue
// slot freed, a running job has its context cancelled — in-flight cells
// drain, unstarted cells never run. Cancelling a terminal job is a no-op.
// It reports whether the job exists.
func (m *Manager) Cancel(id string) bool {
	// Lock order everywhere is m.mu before job.mu (pruneFinishedLocked
	// relies on the same order).
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	job.mu.Lock()
	var cancel context.CancelFunc
	var finished bool
	switch job.state {
	case StateQueued:
		job.state = StateCancelled
		job.finished = time.Now().UTC()
		finished = true
		for i, p := range m.pending {
			if p == job {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				mJobsQueued.Dec()
				break
			}
		}
		// Cancelled before a worker picked it up: this is its terminal
		// accounting (run() never sees it, or early-returns).
		mJobsFinished.With(string(StateCancelled)).Inc()
		m.releaseLocked(job)
		m.log().Info("job cancelled while queued", obs.KeyJobID, job.id)
	case StateRunning:
		cancel = job.cancel
	}
	job.mu.Unlock()
	m.mu.Unlock()
	if finished && m.Journal != nil {
		if err := m.Journal.Finish(job.id, StateCancelled, "", job.finished); err != nil {
			m.log().Warn("journal finish failed", obs.KeyJobID, job.id, "err", err.Error())
		}
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// releaseLocked returns a terminal job's admission quota exactly once.
// Caller holds job.mu.
func (m *Manager) releaseLocked(job *Job) {
	if job.released {
		return
	}
	job.released = true
	m.Admission.Release(job.tenant, job.admCells)
}

// worker executes queued jobs until shutdown empties the queue.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		job := m.pending[0]
		m.pending = m.pending[1:]
		mJobsQueued.Dec()
		m.mu.Unlock()
		m.run(job)
	}
}

// run executes one job to a terminal state.
func (m *Manager) run(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting in the queue
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now().UTC()
	job.cancel = cancel
	queueWait := job.started.Sub(job.created)
	job.mu.Unlock()

	mJobsRunning.Inc()
	m.log().Info("job started",
		obs.KeyJobID, job.id, "kind", job.req.Kind(), "experiment", job.req.Experiment,
		obs.KeyTenant, job.tenant, "queue_wait", queueWait.String())

	// progress folds every batch the job submits into cumulative per-cell
	// counters and the timing breakdown. Drivers submit batches
	// sequentially, so tracking one open batch (batchBase + the current
	// batch's done/total) is exact.
	progress := func(done, total int, o batch.Outcome) {
		job.mu.Lock()
		job.cellsDone = job.batchBase + done
		job.cellsTotal = job.batchBase + total
		if o.Hit {
			job.cacheHits++
		} else {
			job.simulated++
		}
		tm := &job.cellTiming
		tm.CellsWall += o.Wall
		if o.Remote {
			tm.RemoteCells++
		}
		if o.Analytical {
			tm.AnalyticalCells++
		}
		tm.Phases.Add(o.Phases)
		if done == total {
			job.batchBase += total
		}
		cd, ct, ch, cs := job.cellsDone, job.cellsTotal, job.cacheHits, job.simulated
		job.mu.Unlock()
		// Watermark every 16th cell (and batch boundaries): purely
		// informational across restarts — replay re-runs the job warm
		// from the cache regardless — so the journal grows slowly.
		if m.Journal != nil && (done == total || cd%16 == 0) {
			_ = m.Journal.Cells(job.id, cd, ct, ch, cs)
		}
	}

	var err error
	if job.req.Optimize != nil {
		// The optimizer submits successive evaluation batches through the
		// shared executor exactly like an experiment driver, so the cell
		// counters accumulate through the same progress closure; OnPhase
		// additionally surfaces per-generation search progress.
		var res *search.Result
		res, err = search.Run(ctx, *job.req.Optimize, search.Options{
			Executor: m.executor(),
			Progress: progress,
			OnPhase: func(p search.Progress) {
				job.mu.Lock()
				job.optProgress = &p
				job.mu.Unlock()
			},
		})
		if err == nil {
			job.mu.Lock()
			job.optResult = res
			job.mu.Unlock()
		}
	} else if job.req.Spec != nil {
		// Re-expansion of the submit-validated spec (Submit dropped the
		// cells to keep queued jobs small); it cannot fail differently
		// than it did at validation, but the error path stays honest.
		var cells []batch.Cell
		cells, err = job.req.Spec.Cells()
		if err == nil {
			job.mu.Lock()
			job.cellsTotal = len(cells)
			job.mu.Unlock()
			var reports []stats.Report
			reports, err = m.executor().RunContext(ctx, cells, progress)
			if err == nil {
				job.mu.Lock()
				job.cells, job.reports = cells, reports
				job.mu.Unlock()
			}
		}
	} else {
		d, _ := experiments.Lookup(job.req.Experiment) // validated at submit
		o := job.req.Params.Options()
		o.Engine = &experiments.Engine{Executor: m.executor(), Ctx: ctx, Progress: progress}
		var res experiments.Result
		res, err = d.Run(o, job.req.Params.AblWorkload())
		if err == nil {
			job.mu.Lock()
			job.result = res
			job.mu.Unlock()
		}
	}

	// m.mu is held from the state change through the prune, so a client
	// that sees this job terminal and then lists jobs finds the retention
	// bound already applied.
	m.mu.Lock()
	job.mu.Lock()
	job.finished = time.Now().UTC()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = StateDone
	case errors.Is(err, context.Canceled):
		job.state = StateCancelled
	default:
		job.state = StateFailed
		job.errMsg = err.Error()
	}
	state := job.state
	runFor := job.finished.Sub(job.started)
	done, hits := job.cellsDone, job.cacheHits
	finishedAt, errMsg := job.finished, job.errMsg
	m.releaseLocked(job)
	job.mu.Unlock()
	m.pruneFinishedLocked()
	m.mu.Unlock()

	mJobsRunning.Dec()
	mJobsFinished.With(string(state)).Inc()
	mJobDuration.ObserveDuration(runFor)
	if m.Journal != nil {
		if jerr := m.Journal.Finish(job.id, state, errMsg, finishedAt); jerr != nil {
			m.log().Warn("journal finish failed", obs.KeyJobID, job.id, "err", jerr.Error())
		}
	}
	lvl := slog.LevelInfo
	if state == StateFailed {
		lvl = slog.LevelWarn
	}
	m.log().Log(context.Background(), lvl, "job finished",
		obs.KeyJobID, job.id, "state", string(state), obs.KeyTenant, job.tenant,
		"cells", done, "cache_hits", hits,
		"duration", runFor.String(), "err", job.errMsg)
	if m.Journal != nil && m.Journal.NeedsCompaction() {
		if err := m.compactJournal(); err != nil {
			m.log().Warn("journal compaction failed", "err", err.Error())
		}
	}
}

// hasResult reports whether the job holds a renderable result payload.
// Journal-replayed terminal jobs keep their status but not their result
// (payloads lived only in the crashed process's memory).
func (j *Job) hasResult() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result != nil || j.reports != nil || j.optResult != nil
}

// compactJournal rewrites the journal as one record per remembered job:
// terminal jobs fold to archived one-liners (status only — their result
// payloads are in memory and their cells in the result cache), live jobs
// to fresh submit records. Start/watermark noise from job execution is
// what compaction exists to shed.
func (m *Manager) compactJournal() error {
	m.mu.Lock()
	recs := make([]journalRecord, 0, len(m.order))
	for _, id := range m.order {
		job := m.jobs[id]
		st := job.Status() // lock order: m.mu before job.mu
		if st.State.Terminal() {
			recs = append(recs, journalRecord{
				T: recArchived, ID: id, Tenant: job.tenant,
				State: st.State, Error: st.Error,
				Kind: st.Kind, Experiment: st.Experiment,
				Created: st.Created, Finished: *st.Finished,
				Done: st.CellsDone, Total: st.CellsTotal,
				Hits: st.CacheHits, Sim: st.Simulated,
			})
		} else {
			recs = append(recs, journalRecord{
				T: recSubmit, ID: id, Tenant: job.tenant,
				Req: &job.orig, At: st.Created,
			})
		}
	}
	m.mu.Unlock()
	return m.Journal.Compact(recs)
}

// Recover loads journal-replayed jobs into the manager: terminal jobs
// re-enter bounded history (status queryable, result payload gone), jobs
// that were queued or running re-queue and run again — warm, since every
// cell they completed is already in the content-addressed result cache,
// so the re-run is byte-identical with near-zero recomputation. Call
// once, after setting Journal/Admission/Executor and before serving
// traffic. Replayed live jobs keep their original ids; the id sequence
// resumes past the highest replayed id.
func (m *Manager) Recover(replayed []ReplayedJob) {
	if len(replayed) == 0 {
		return
	}
	requeued, terminal, failed := 0, 0, 0
	for _, r := range replayed {
		m.mu.Lock()
		if r.ID == "" || m.jobs[r.ID] != nil {
			m.mu.Unlock()
			continue
		}
		if s := jobSeq(r.ID); s > m.seq {
			m.seq = s
		}
		job := &Job{
			id:       r.ID,
			orig:     r.Req,
			tenant:   r.Tenant,
			replayed: true,
			created:  r.Created,
		}
		if r.Terminal() {
			job.state = r.State
			job.errMsg = r.Error
			job.finished = r.Finished
			if job.finished.IsZero() {
				job.finished = job.created
			}
			job.released = true // terminal before the crash; nothing charged
			job.req = r.Req
			if job.req.Kind() != r.Kind && r.Kind != "" {
				// Archived records drop the request; keep Kind honest by
				// reconstructing the minimal shape Status needs.
				job.req = Request{Experiment: r.Experiment}
				switch r.Kind {
				case "sweep":
					job.req = Request{Spec: &batch.SweepSpec{}}
				case "optimize":
					job.req = Request{Optimize: &search.Spec{}}
				}
			}
			job.cellsDone, job.cellsTotal = r.Done, r.Total
			job.cacheHits, job.simulated = r.Hits, r.Sim
			m.jobs[job.id] = job
			m.order = append(m.order, job.id)
			m.mu.Unlock()
			terminal++
			mJournalReplayed.With("terminal").Inc()
			continue
		}
		// Live at the crash: re-prepare the original request and re-queue.
		req, cells, err := r.Req.prepare()
		if err != nil {
			// The request no longer validates (registry or schema moved
			// under it across the restart): record a failed job rather
			// than dropping it silently.
			job.state = StateFailed
			job.errMsg = fmt.Sprintf("replay: %v", err)
			job.finished = time.Now().UTC()
			job.released = true
			job.req = r.Req
			m.jobs[job.id] = job
			m.order = append(m.order, job.id)
			m.mu.Unlock()
			if m.Journal != nil {
				_ = m.Journal.Finish(job.id, StateFailed, job.errMsg, job.finished)
			}
			failed++
			mJournalReplayed.With("failed").Inc()
			m.log().Warn("replayed job no longer valid",
				obs.KeyJobID, job.id, "err", err.Error())
			continue
		}
		job.req = req
		job.state = StateQueued
		job.admCells = req.admissionUnits(cells)
		// Re-count quota without charging rate tokens: replay is the
		// server's doing, not client traffic.
		m.Admission.Restore(job.tenant, job.admCells)
		m.pending = append(m.pending, job)
		m.jobs[job.id] = job
		m.order = append(m.order, job.id)
		m.cond.Signal()
		mJobsQueued.Inc()
		m.mu.Unlock()
		requeued++
		mJournalReplayed.With("requeued").Inc()
		m.log().Info("job replayed from journal",
			obs.KeyJobID, job.id, obs.KeyTenant, job.tenant,
			"kind", job.req.Kind(), "experiment", job.req.Experiment,
			"cells_done_before_crash", r.Done, "cells_total", r.Total)
	}
	m.mu.Lock()
	m.pruneFinishedLocked()
	m.mu.Unlock()
	if m.Journal != nil {
		if err := m.compactJournal(); err != nil {
			m.log().Warn("journal compaction failed", "err", err.Error())
		}
	}
	m.log().Info("journal replayed",
		"requeued", requeued, "terminal", terminal, "invalid", failed)
}

// pruneFinishedLocked evicts the oldest terminal jobs beyond the
// retention bound so a long-lived daemon's job table (and the result
// payloads it pins) stays bounded. Evicted ids answer 404 afterwards.
// Caller holds m.mu and no job.mu.
func (m *Manager) pruneFinishedLocked() {
	retain := m.Retain
	if retain <= 0 {
		retain = defaultRetain
	}
	finished := 0
	for _, id := range m.order {
		if st := m.jobs[id].Status().State; st.Terminal() {
			finished++
		}
	}
	for i := 0; finished > retain && i < len(m.order); {
		id := m.order[i]
		if st := m.jobs[id].Status().State; !st.Terminal() {
			i++
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		finished--
	}
}

// Shutdown drains the manager: intake stops (Submit returns ErrDraining),
// queued and running jobs are given until ctx expires to finish, then
// everything still running is cancelled and awaited. Safe to call once.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every remaining job (including queued ones the
		// workers will now skip) and wait for in-flight cells to drain.
		m.stop()
		for _, job := range m.Jobs() {
			m.Cancel(job.ID())
		}
		<-done
	}
	m.stop()
}
