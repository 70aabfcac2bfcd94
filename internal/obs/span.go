package obs

import (
	"context"
	"sync"
	"time"
)

// Phases is one simulation's wall-clock split into the three per-cell
// stages: workload trace generation (near zero when the in-process trace
// registry already holds the trace), platform construction (device
// arrays, caches, channel models), and the discrete-event loop itself.
// Durations marshal as integer nanoseconds, so the breakdown is
// machine-readable from the job API and the worker wire protocol.
type Phases struct {
	TraceGen      time.Duration `json:"trace_gen_ns"`
	PlatformBuild time.Duration `json:"platform_build_ns"`
	EventLoop     time.Duration `json:"event_loop_ns"`
}

// Add accumulates q into p.
func (p *Phases) Add(q Phases) {
	p.TraceGen += q.TraceGen
	p.PlatformBuild += q.PlatformBuild
	p.EventLoop += q.EventLoop
}

// Total returns the summed phase time.
func (p Phases) Total() time.Duration {
	return p.TraceGen + p.PlatformBuild + p.EventLoop
}

// IsZero reports whether no phase was measured (cache hits, shared
// single-flight results, analytical estimates).
func (p Phases) IsZero() bool { return p == Phases{} }

// JobSpan aggregates the cells of one job into a timing breakdown. The
// executor records each resolved cell (the runner for in-process and
// analytical cells, the dispatcher for distributed ones, via the job's
// context); the serving layer snapshots the span into the job status, so
// a slow sweep is diagnosable from GET /v1/jobs/{id} alone: is the time
// in trace generation, platform setup, the event loop, cache churn or
// remote dispatch?
type JobSpan struct {
	mu         sync.Mutex
	cells      int
	hits       int
	remote     int
	analytical int
	wall       time.Duration
	phases     Phases
}

// RecordCell folds one resolved cell into the span: its wall time (queue
// and transport included for remote cells), its phase split when it was
// simulated locally or shipped back by a worker, whether it was served
// from cache, and whether a remote worker computed it.
func (s *JobSpan) RecordCell(wall time.Duration, ph Phases, hit, remote bool) {
	s.RecordCellMode(wall, ph, hit, remote, false)
}

// RecordCellMode is RecordCell with the cell's execution mode: analytical
// cells (closed-form twin estimates) are counted separately so a job's
// timing breakdown distinguishes estimated cells from simulated ones.
func (s *JobSpan) RecordCellMode(wall time.Duration, ph Phases, hit, remote, analytical bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cells++
	if hit {
		s.hits++
	}
	if remote {
		s.remote++
	}
	if analytical {
		s.analytical++
	}
	s.wall += wall
	s.phases.Add(ph)
	s.mu.Unlock()
}

// SpanSnapshot is the serializable view of a JobSpan.
type SpanSnapshot struct {
	// Cells is how many cell resolutions the span observed.
	Cells int `json:"cells"`
	// CacheHits counts cells served without simulating for this job.
	CacheHits int `json:"cache_hits"`
	// RemoteCells counts cells computed by remote workers.
	RemoteCells int `json:"remote_cells"`
	// AnalyticalCells counts cells resolved by the closed-form twin
	// instead of the event simulator.
	AnalyticalCells int `json:"analytical_cells"`
	// CellsWall sums per-cell wall time across all cells (queueing and
	// transport included); it exceeds elapsed time under parallelism.
	CellsWall time.Duration `json:"cells_wall_ns"`
	// Phases sums the measured per-phase time of simulated cells.
	Phases Phases `json:"phases"`
}

// Snapshot returns the current totals.
func (s *JobSpan) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanSnapshot{
		Cells:           s.cells,
		CacheHits:       s.hits,
		RemoteCells:     s.remote,
		AnalyticalCells: s.analytical,
		CellsWall:       s.wall,
		Phases:          s.phases,
	}
}

type spanKey struct{}

// WithSpan attaches a span to ctx; executors running cells under this
// context record into it.
func WithSpan(ctx context.Context, s *JobSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *JobSpan {
	s, _ := ctx.Value(spanKey{}).(*JobSpan)
	return s
}
