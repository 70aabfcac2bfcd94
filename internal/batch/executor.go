package batch

import (
	"context"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Executor runs a list of sweep cells to completion: reports are aligned
// positionally with cells, progress (when non-nil) observes each completed
// cell, and cancellation follows RunContext's contract. The in-process
// Runner satisfies it through LocalExecutor; internal/dist satisfies it
// with a coordinator that leases cells to remote worker processes. The
// serving layer programs against this seam, so where cells execute is a
// deployment decision, not an API one.
type Executor interface {
	RunContext(ctx context.Context, cells []Cell, progress Progress) ([]stats.Report, error)
}

// LocalExecutor is the in-process Executor: every cell runs on the wrapped
// Runner's worker pool, sharing its result cache, concurrency cap and
// single-flight table. It is the executor every deployment starts with and
// the reference the distributed path must stay byte-identical to.
type LocalExecutor struct {
	*Runner
}

var _ Executor = LocalExecutor{}

// RunCell resolves a single cell through the Runner's full machinery —
// cache lookup, single-flight, the process-wide simulation semaphore —
// and reports how it was resolved. It is the per-cell entry point the
// distributed dispatcher uses for the cells it resolves locally and
// remote workers use for the cells they lease. A computed cell's cache
// write has returned by the time RunCell does.
func (r *Runner) RunCell(ctx context.Context, c Cell) (stats.Report, Outcome, error) {
	rep, o, write, err := r.runCell(ctx, c, nil)
	if write != nil {
		rep = r.land(write)
	}
	return rep, o, err
}

// RunCellTimed is RunCell with the outcome cut down to whether the cell
// was served without simulating here and its phase split.
func (r *Runner) RunCellTimed(ctx context.Context, c Cell) (stats.Report, bool, obs.Phases, error) {
	rep, o, err := r.RunCell(ctx, c)
	return rep, o.Hit, o.Phases, err
}
