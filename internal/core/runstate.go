package core

import (
	"sync"

	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunState owns the recyclable allocations of one simulation run: the
// device structures (GPU, memory controllers, caches, channel models, and
// the occupancy tables each of them keeps), the stats counter arenas and
// the event engine. Every System is built into one: a new, empty state for
// a one-off build, or a recycled one for a sweep cell, which acquires it,
// builds its System into it, and releases it for the next cell — warm
// cells then reuse the previous cell's arrays instead of reallocating
// them.
//
// A RunState must never back two live Systems at once: the System returned
// by NewSystemIn aliases the state's components, so release it only after
// the run's Report has been taken (reports are value snapshots and remain
// valid afterwards).
type RunState struct {
	col   *stats.Collector
	pools sim.Pools
	mem   *hmem.Controller
	gpu   *gpu.GPU
}

// runStatePool recycles RunStates across cells. sync.Pool gives scheduler-
// friendly per-P caching under the batch runner's worker parallelism and
// lets idle state be garbage collected between sweeps.
var runStatePool = sync.Pool{New: func() any { return new(RunState) }}

// AcquireRunState takes a recycled run state (or a new empty one) from the
// process-wide pool.
func AcquireRunState() *RunState {
	return runStatePool.Get().(*RunState)
}

// ReleaseRunState returns a state to the pool. The caller must no longer
// hold a System built into it. Safe on nil.
func ReleaseRunState(st *RunState) {
	if st != nil {
		runStatePool.Put(st)
	}
}
