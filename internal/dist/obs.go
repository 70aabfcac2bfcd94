package dist

import "repro/internal/obs"

// Process-wide distribution-protocol metrics (promauto idiom: registered
// once in obs.Default at init, served by GET /metrics). Unlike the
// per-Dispatcher Counters snapshot they accumulate across every dispatcher
// in the process, so tests assert deltas. The worker-connected gauge moves
// with balanced Inc/Dec on register/deregister/forget, never absolute
// Sets, for the same reason.
var (
	mLeasesGranted = obs.NewCounter("ohm_dist_leases_granted_total",
		"Cell leases granted to remote workers (steals included).")
	mLeasesExpired = obs.NewCounter("ohm_dist_leases_expired_total",
		"Leases that timed out without a heartbeat or completion.")
	mLeasesStolen = obs.NewCounter("ohm_dist_leases_stolen_total",
		"Duplicate leases granted to idle workers for slow cells (work stealing).")
	mRequeuedCells = obs.NewCounter("ohm_dist_requeued_total",
		"Cells put back in the queue after a lost lease or worker error.")
	mRemoteCompleted = obs.NewCounter("ohm_dist_remote_completed_total",
		"Cells completed by remote workers and accepted by the coordinator.")
	mLocalCompleted = obs.NewCounter("ohm_dist_local_completed_total",
		"Queued cells the coordinator executed on its own runner.")
	mDistFailed = obs.NewCounter("ohm_dist_failed_total",
		"Cells that exhausted their lease attempts or failed terminally.")
	mDistCacheHits = obs.NewCounter("ohm_dist_cache_hits_total",
		"Cells answered from the coordinator cache without dispatching.")
	mHeartbeats = obs.NewCounter("ohm_dist_heartbeats_total",
		"Worker heartbeats processed.")
	mVersionSkew = obs.NewCounter("ohm_dist_version_skew_total",
		"Completions refused because the worker's content address disagreed (binary version skew).")

	mWorkersConnected = obs.NewGauge("ohm_dist_workers_connected",
		"Currently registered workers across live dispatchers.")
	mWorkerCells = obs.NewCounterVec("ohm_dist_worker_cells_total",
		"Accepted cell completions by worker (name, or id when unnamed).", "worker")
)

// workerLabel picks the low-cardinality metric label for a worker: its
// human name when it advertised one, else its coordinator-assigned id.
func workerLabel(w *workerState) string {
	if w.name != "" {
		return w.name
	}
	return w.id
}
