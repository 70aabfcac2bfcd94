package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/search"
)

// NewHandler returns the daemon's HTTP API:
//
//	POST   /v1/sweeps           submit a job (sweep spec, scenario document or experiment id)
//	POST   /v1/optimize         submit an optimizer job (search spec over override axes)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status with per-cell progress
//	GET    /v1/jobs/{id}/result finished results (JSON, or CSV for sweeps)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/experiments      list the registered experiment drivers
//	GET    /v1/platforms        list the platform presets (discovery)
//	GET    /v1/workloads        list the Table II workload definitions (discovery)
//	GET    /v1/healthz          liveness: uptime, queue depth, jobs running, cache stats
//	GET    /metrics             Prometheus text exposition of every registered metric
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("POST /v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		handleOptimize(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		statuses := make([]Status, len(jobs))
		for i, j := range jobs {
			statuses[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, statuses)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Hold the job before cancelling: pruneFinishedLocked may evict the id
		// from the table concurrently, but the pointer stays valid.
		job, ok := m.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		m.Cancel(id)
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(m, w, r)
	})
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			ID          string `json:"id"`
			Title       string `json:"title"`
			PerWorkload bool   `json:"per_workload"`
		}
		var out []entry
		for _, d := range experiments.Drivers() {
			out = append(out, entry{ID: d.ID, Title: d.Title, PerWorkload: d.PerWorkload})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/platforms", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Name          string   `json:"name"`
			Title         string   `json:"title"`
			Optical       bool     `json:"optical"`
			Heterogeneous bool     `json:"heterogeneous"`
			Modes         []string `json:"modes"`
		}
		modes := make([]string, 0, len(config.AllModes())*len(config.AllExecModes()))
		for _, e := range config.AllExecModes() {
			for _, m := range config.AllModes() {
				modes = append(modes, config.ModeString(m, e))
			}
		}
		var out []entry
		for _, p := range config.Presets() {
			out = append(out, entry{
				Name:          p.Name,
				Title:         p.Title,
				Optical:       p.Platform.Optical(),
				Heterogeneous: p.Platform.Heterogeneous(),
				Modes:         modes,
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, config.Workloads())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Health())
	})
	mux.Handle("GET /metrics", obs.Handler())
	return mux
}

// maxSubmitBytes bounds POST /v1/sweeps bodies: far above any legitimate
// spec, far below what giant repeated-axis lists need to stress expansion.
const maxSubmitBytes = 4 << 20

// ReasonJobCancelled is the machine-readable reason a cancelled job's
// result endpoint returns (resultUnavailable.Reason).
const ReasonJobCancelled = "job_cancelled"

// ReasonResultLost marks a done job whose result payload did not survive
// a coordinator restart: the journal replays job status, but rendered
// results lived only in the crashed process's memory. Resubmitting the
// same request recomputes it warm from the result cache.
const ReasonResultLost = "result_lost_on_restart"

// TenantHeader names the request header that selects the admission
// tenant a submission bills against; absent means DefaultTenant.
const TenantHeader = "X-Ohm-Tenant"

// maxTenantLen bounds the client-supplied tenant id (it becomes a metric
// label and a journal field).
const maxTenantLen = 64

// tenantFrom extracts and validates the tenant identity of a request.
func tenantFrom(r *http.Request) (string, error) {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		return DefaultTenant, nil
	}
	if len(name) > maxTenantLen {
		return "", fmt.Errorf("tenant id longer than %d bytes", maxTenantLen)
	}
	for _, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' {
			continue
		}
		return "", fmt.Errorf("tenant id %q: only [A-Za-z0-9._-] allowed", name)
	}
	return name, nil
}

// resultUnavailable is the structured body of GET /v1/jobs/{id}/result
// when the job reached a terminal state without a result. Error keeps the
// human sentence every other error body carries; State and Reason are for
// scripts.
type resultUnavailable struct {
	Error  string `json:"error"`
	State  State  `json:"state"`
	Reason string `json:"reason"`
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s header: %v", TenantHeader, err)
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if dr := r.URL.Query().Get("dry_run"); dr != "" && dr != "0" && dr != "false" {
		handleDryRun(w, req)
		return
	}
	submitAndRespond(m, w, tenant, req)
}

// handleOptimize is POST /v1/optimize: the body is the bare search spec
// (the `ohmbatch -optimize` file shape); it submits as an optimize job
// with the same queueing, admission, journaling and cancellation
// semantics as every other job. ?dry_run=1 validates and prices without
// enqueueing, like POST /v1/sweeps.
func handleOptimize(m *Manager, w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s header: %v", TenantHeader, err)
		return
	}
	var spec search.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req := Request{Optimize: &spec}
	if dr := r.URL.Query().Get("dry_run"); dr != "" && dr != "0" && dr != "false" {
		handleDryRun(w, req)
		return
	}
	submitAndRespond(m, w, tenant, req)
}

// submitAndRespond enqueues a prepared request and renders the shared
// submission response contract (202 + Location, 429 with Retry-After for
// admission, 503 for pressure, 400 otherwise).
func submitAndRespond(m *Manager, w http.ResponseWriter, tenant string, req Request) {
	job, st, err := m.submit(tenant, req)
	var adm *AdmissionError
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+job.ID())
		writeJSON(w, http.StatusAccepted, st)
	case errors.As(err, &adm):
		// Over-limit tenants get 429 with Retry-After and a machine-
		// readable reason so clients can back off without string-matching.
		secs := int(adm.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
			"error":               adm.Error(),
			"reason":              adm.Reason,
			"tenant":              adm.Tenant,
			"retry_after_seconds": secs,
		})
	case err == ErrQueueFull, err == ErrDraining:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// dryRunResponse is the body of POST /v1/sweeps?dry_run=1: the request is
// validated and expanded but never enqueued, and the client gets the cell
// count, the DES/analytical split, and a cost estimate so it can decide
// whether to submit — or to resubmit the sweep in analytical mode first.
type dryRunResponse struct {
	Kind         string `json:"kind"`
	Valid        bool   `json:"valid"`
	DistinctKeys int    `json:"distinct_keys,omitempty"`
	// Cost is the static estimate for sweep jobs. It is deliberately
	// absent for experiment and optimize kinds, whose cells are chosen by
	// the driver/search at run time — a zero-cell estimate here used to
	// read as "free", which was a lie.
	Cost *batch.CostEstimate `json:"cost,omitempty"`
	// PlannedEvaluations is the optimizer's twin-evaluation budget (the
	// admission charge); frontier points additionally re-run under DES.
	PlannedEvaluations int `json:"planned_evaluations,omitempty"`
	// Note explains why a field is absent, for humans reading the body.
	Note string `json:"note,omitempty"`
}

// handleDryRun validates a submission without admitting it. Dry runs
// bypass admission control deliberately: they enqueue nothing and cost
// microseconds, and a tenant sizing a sweep before submitting is exactly
// the behaviour admission limits exist to encourage.
func handleDryRun(w http.ResponseWriter, req Request) {
	_, cells, err := req.prepare()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := dryRunResponse{Kind: req.Kind(), Valid: true}
	switch resp.Kind {
	case "optimize":
		resp.PlannedEvaluations = req.Optimize.PlannedEvaluations()
		resp.Note = "planned_evaluations counts analytical-twin evaluations; Pareto-frontier points are additionally confirmed under the event simulator"
	case "experiment":
		resp.Note = "experiment cells are chosen by the driver at run time; no static cost estimate exists"
	default:
		cost := batch.EstimateCost(cells)
		resp.Cost = &cost
		keys := make(map[string]struct{}, len(cells))
		for _, c := range cells {
			if k, err := c.Key(); err == nil {
				keys[k] = struct{}{}
			}
		}
		resp.DistinctKeys = len(keys)
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := job.Status()
	switch st.State {
	case StateDone:
		if !job.hasResult() {
			// Done before a restart: the journal replayed the status but
			// the rendered payload is gone. 410 with the reason; a warm
			// resubmit of the same request recomputes it from the cache.
			writeJSON(w, http.StatusGone, resultUnavailable{
				Error:  fmt.Sprintf("job %s finished before a server restart; its result payload was not retained — resubmit to recompute from cache", st.ID),
				State:  st.State,
				Reason: ReasonResultLost,
			})
			return
		}
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", st.Error)
		return
	case StateCancelled:
		// A cancelled job has no result by design, not by failure: answer
		// 410 with a machine-readable envelope so clients can branch on
		// the reason instead of string-matching a generic error body.
		writeJSON(w, http.StatusGone, resultUnavailable{
			Error:  fmt.Sprintf("job %s was cancelled; no result was produced", st.ID),
			State:  st.State,
			Reason: ReasonJobCancelled,
		})
		return
	default:
		// Not finished: answer with the status so pollers can reuse the
		// response, under a conflict code so scripts notice.
		writeJSON(w, http.StatusConflict, st)
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/csv") {
		format = "csv"
	}
	if format == "" {
		format = "json"
	}

	// Terminal jobs are immutable, so the result fields need no lock.
	switch {
	case st.Kind == "sweep" && format == "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := batch.WriteCSV(w, job.cells, job.reports); err != nil {
			writeError(w, http.StatusInternalServerError, "encode csv: %v", err)
		}
	case st.Kind == "sweep" && format == "json":
		w.Header().Set("Content-Type", "application/json")
		if err := batch.WriteJSON(w, job.cells, job.reports); err != nil {
			writeError(w, http.StatusInternalServerError, "encode json: %v", err)
		}
	case st.Kind == "experiment" && format == "json":
		// The exact bytes `ohmfig -json <id>` prints, so served figures are
		// interchangeable with locally generated ones.
		w.Header().Set("Content-Type", "application/json")
		if err := experiments.EncodeResultJSON(w, job.req.Experiment, job.result); err != nil {
			writeError(w, http.StatusInternalServerError, "encode result: %v", err)
		}
	case st.Kind == "optimize" && format == "json":
		// The exact bytes `ohmbatch -optimize` prints for the same (spec,
		// seed), so optimizer results are byte-identical across surfaces.
		w.Header().Set("Content-Type", "application/json")
		if err := search.WriteJSON(w, job.optResult); err != nil {
			writeError(w, http.StatusInternalServerError, "encode result: %v", err)
		}
	default:
		writeError(w, http.StatusNotAcceptable, "format %q not available for %s jobs", format, st.Kind)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
