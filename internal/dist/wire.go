// Package dist distributes sweep cells across worker processes. The
// coordinator side (Dispatcher) is a batch.Executor: it leases cells to
// registered workers over HTTP, requeues them when a lease expires or a
// worker disappears, lets idle workers steal long-running cells, and
// inserts every returned report into the coordinator's content-addressed
// cache — so a warm rerun answers from cache no matter which node
// computed a cell. The worker side (Worker) is a pull loop: register,
// lease, simulate on a local batch.Runner (with its own cache), complete.
//
// Correctness rests on the content-addressed cache contract from
// internal/batch: a cell's key hashes its fully-resolved configuration,
// and the simulator is deterministic, so any node's result for a key is
// the result. Workers verify that the key they compute for a shipped cell
// matches the coordinator's; a mismatch (version skew between binaries)
// fails the cell loudly instead of poisoning either cache.
package dist

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human label for logs; it need not be unique.
	Name string `json:"name,omitempty"`
	// Capacity is how many cells the worker runs concurrently.
	Capacity int `json:"capacity"`
}

// RegisterResponse assigns the worker its identity and the protocol
// cadence the coordinator expects.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long a lease lives without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// HeartbeatMillis is how often the worker should heartbeat in-flight
	// cells (a fraction of the lease TTL).
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// LeaseRequest asks for up to Max cells.
type LeaseRequest struct {
	Max int `json:"max"`
}

// LeaseResponse carries zero or more leased cells. An empty list means the
// long poll timed out with nothing runnable; the worker just polls again.
type LeaseResponse struct {
	Cells []WireCell `json:"cells"`
}

// WireCell is one leased cell on the wire: the fully-resolved
// configuration plus workload identity and run variant — everything a
// worker needs to reconstruct the exact batch.Cell and reproduce its
// cache key.
type WireCell struct {
	// TaskID names the lease; Complete echoes it.
	TaskID string `json:"task_id"`
	// Key is the coordinator's content address for the cell. The worker
	// recomputes it and refuses to run on mismatch.
	Key string `json:"key"`
	// Workload is the workload name (Table II or spec-local).
	Workload string `json:"workload"`
	// WorkloadDef is the inline definition for custom workloads.
	WorkloadDef *config.Workload `json:"workload_def,omitempty"`
	// Variant is the cell's run variant (empty for the default run). A
	// worker that does not know it fails the cell rather than run it.
	Variant core.Variant `json:"salt,omitempty"`
	// Config is the fully-resolved configuration (it JSON round-trips
	// losslessly, which is also what the cache key hashes).
	Config config.Config `json:"config"`
}

// Cell reconstructs the runnable batch.Cell.
func (w WireCell) Cell() batch.Cell {
	return batch.Cell{
		Workload:    w.Workload,
		WorkloadDef: w.WorkloadDef,
		Variant:     w.Variant,
		Config:      w.Config,
	}
}

// wireCell builds the on-the-wire form of a task's cell.
func wireCell(taskID, key string, c batch.Cell) WireCell {
	return WireCell{
		TaskID:      taskID,
		Key:         key,
		Workload:    c.Workload,
		WorkloadDef: c.WorkloadDef,
		Variant:     c.Variant,
		Config:      c.Config,
	}
}

// CompleteRequest returns one finished cell. Exactly one of Report or
// Error is meaningful: a failed simulation ships its error string so the
// coordinator can count attempts and eventually fail the cell.
type CompleteRequest struct {
	TaskID string `json:"task_id"`
	Key    string `json:"key"`
	// Report is the simulation result (present on success).
	Report *stats.Report `json:"report,omitempty"`
	// Error is the failure message (present on failure).
	Error string `json:"error,omitempty"`
	// CacheHit reports whether the worker served the cell from its own
	// cache rather than simulating (coordinator observability only).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Phases is the worker-side phase split of a simulated cell (absent
	// for cache hits and failures), folded into the waiting job's timing
	// breakdown on the coordinator. Older workers simply omit it.
	Phases *obs.Phases `json:"phases,omitempty"`
}

// CompleteResponse acknowledges a completion. Revoked tells the worker
// the lease no longer existed (the job was cancelled or the cell was
// requeued and finished elsewhere); such a result is dropped, because
// without the live task there is no trusted key to verify the report
// against before it could enter the cache.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
	Revoked  bool `json:"revoked,omitempty"`
}

// HeartbeatRequest extends the leases on the listed tasks and marks the
// worker alive.
type HeartbeatRequest struct {
	TaskIDs []string `json:"task_ids,omitempty"`
}

// HeartbeatResponse lists the subset of heartbeated tasks whose leases are
// gone (cancelled, expired-and-refinished, or stolen-and-finished); the
// worker should abandon them (their completions would be ignored).
type HeartbeatResponse struct {
	Revoked []string `json:"revoked,omitempty"`
}

// errorBody is the JSON error envelope the worker endpoints write.
type errorBody struct {
	Error string `json:"error"`
}

func (e errorBody) String() string { return e.Error }

// pathError formats a protocol-level failure.
func pathError(format string, args ...interface{}) error {
	return fmt.Errorf("dist: "+format, args...)
}
