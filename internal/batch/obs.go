package batch

import "repro/internal/obs"

// Process-wide batch-layer metrics, following the promauto idiom: declared
// once at package init, registered in obs.Default, served by GET /metrics.
// Several Runner or cache instances may coexist in one process (tests,
// embedded uses); counters and gauges accumulate across all of them, so
// assertions and dashboards should read deltas, and gauges are updated with
// balanced Add calls rather than absolute Sets.
//
// Granularity is cells, never simulated events: the discrete-event kernel
// stays allocation-free (the benchcheck CI gate enforces it), so nothing
// here is touched from inside a running simulation.
var (
	mCellsCompleted = obs.NewCounterVec("ohm_cells_completed_total",
		"Sweep cells resolved by this process (cache hits included).", "mode")
	mCellDuration = obs.NewHistogram("ohm_cell_duration_seconds",
		"Wall time to resolve one cell, cache hits included and its result-cache write excluded.", nil)
	mCellPhase = obs.NewHistogramVec("ohm_cell_phase_seconds",
		"Per-phase wall time of locally simulated cells.", nil, "phase")

	mActiveSims = obs.NewGauge("ohm_simulations_active",
		"Simulations currently holding a runner slot.")
	mSimSlots = obs.NewGauge("ohm_simulation_slots",
		"Total simulation slots across live runners (saturation ceiling for ohm_simulations_active).")

	mCacheHits = obs.NewCounter("ohm_result_cache_hits_total",
		"Cells served from the result cache without simulating.")
	mCacheMisses = obs.NewCounter("ohm_result_cache_misses_total",
		"Cells that ran a fresh simulation.")
	mCacheShared = obs.NewCounter("ohm_result_cache_shared_total",
		"Cells that joined another caller's in-flight simulation (single-flight).")
	mCachePutErrors = obs.NewCounter("ohm_result_cache_put_errors_total",
		"Tolerated result-cache store failures (the result was still returned).")
	mCacheCorrupt = obs.NewCounter("ohm_result_cache_corrupt_total",
		"Cache entries that existed but failed to decode (treated as misses).")

	mCacheEvictions = obs.NewCounter("ohm_cache_evictions_total",
		"Result-cache entries evicted by the byte-budget LRU GC.")
	mCacheReclaimed = obs.NewCounter("ohm_cache_reclaimed_bytes_total",
		"Bytes reclaimed from the result cache by the LRU GC.")
	mCacheQuarantined = obs.NewCounter("ohm_result_cache_quarantined_total",
		"Corrupt result-cache entries moved aside to quarantine/ for inspection.")

	mCacheReadSeconds = obs.NewHistogram("ohm_result_cache_read_seconds",
		"Disk result-cache read latency (hits and decode failures).", obs.IOBuckets)
	mCacheWriteSeconds = obs.NewHistogram("ohm_result_cache_write_seconds",
		"Disk result-cache write latency (temp file + rename).", obs.IOBuckets)
	mCacheEntries = obs.NewGauge("ohm_result_cache_entries",
		"Stored result-cache entries across live caches.")
	mCacheBytes = obs.NewGauge("ohm_result_cache_disk_bytes",
		"Bytes of stored result-cache entries across live caches.")
)

// phaseName* label the ohm_cell_phase_seconds series; they mirror the
// obs.Phases fields.
const (
	phaseTraceGen      = "trace_gen"
	phasePlatformBuild = "platform_build"
	phaseEventLoop     = "event_loop"
)

// CacheStats is a cache's size snapshot, surfaced by /v1/healthz.
type CacheStats struct {
	// Entries is the number of stored results.
	Entries int64 `json:"entries"`
	// Bytes is the serialized size of the stored results. For a DiskCache
	// this is file bytes on disk (sharding directories excluded).
	Bytes int64 `json:"bytes"`
}

// StatCache is implemented by caches that can report their size; both
// MemCache and DiskCache do. The serving layer type-asserts against this,
// so custom Cache implementations stay a two-method interface.
type StatCache interface {
	CacheStats() CacheStats
}
