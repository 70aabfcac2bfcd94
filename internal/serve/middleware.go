package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Process-wide serving metrics (promauto idiom; see internal/batch/obs.go
// for the conventions — deltas, balanced gauges).
var (
	mHTTPRequests = obs.NewCounterVec("ohm_http_requests_total",
		"HTTP requests served, by normalized route, method and status code.",
		"route", "method", "code")
	mHTTPDuration = obs.NewHistogramVec("ohm_http_request_duration_seconds",
		"HTTP request latency by normalized route.", nil, "route")
	mHTTPInFlight = obs.NewGauge("ohm_http_in_flight_requests",
		"HTTP requests currently being served.")

	mJobsSubmitted = obs.NewCounterVec("ohm_jobs_submitted_total",
		"Jobs accepted by kind (sweep, experiment or optimize).", "kind")
	mJobsFinished = obs.NewCounterVec("ohm_jobs_finished_total",
		"Jobs reaching a terminal state, by state.", "state")
	mJobsQueued = obs.NewGauge("ohm_jobs_queued",
		"Jobs waiting in the FIFO queue.")
	mJobsRunning = obs.NewGauge("ohm_jobs_running",
		"Jobs currently executing.")
	mJobDuration = obs.NewHistogram("ohm_job_duration_seconds",
		"Job execution time from start to terminal state (queue wait excluded).", nil)
)

// reqSeq numbers requests for the request_id attribute, so one request's
// access-log line joins with any job events it triggered.
var reqSeq atomic.Uint64

// statusWriter captures the response code and body size for metrics and
// the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// routeLabel normalizes a request path to its route shape so metric
// cardinality stays bounded: job and worker ids collapse to {id}, and
// anything unrecognized becomes "other" (one arbitrary-path scrape must
// not mint a series).
func routeLabel(path string) string {
	switch path {
	case "/v1/sweeps", "/v1/jobs", "/v1/experiments", "/v1/platforms",
		"/v1/workloads", "/v1/healthz", "/metrics",
		"/v1/workers/register":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		switch {
		case strings.HasSuffix(rest, "/result") && strings.Count(rest, "/") == 1:
			return "/v1/jobs/{id}/result"
		case !strings.Contains(rest, "/"):
			return "/v1/jobs/{id}"
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/workers/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 && !strings.Contains(rest[i+1:], "/") {
			switch op := rest[i+1:]; op {
			case "lease", "complete", "heartbeat", "deregister":
				return "/v1/workers/{id}/" + op
			}
		}
		return "other"
	}
	return "other"
}

// Instrument wraps a handler with the daemon's HTTP observability:
// request counts and latency by normalized route, an in-flight gauge, and
// one structured access-log line per request carrying a process-unique
// request id. cmd/ohmserve wraps the *combined* mux (API plus worker
// protocol) so coordinator traffic from workers is measured too; wrapping
// happens once at the edge, never inside NewHandler, so nothing double
// counts.
func Instrument(logger *slog.Logger, next http.Handler) http.Handler {
	logger = obs.Or(logger)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := fmt.Sprintf("r-%08d", reqSeq.Add(1))
		mHTTPInFlight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		mHTTPInFlight.Dec()
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing; net/http sends 200
		}
		route := routeLabel(r.URL.Path)
		elapsed := time.Since(start)
		mHTTPRequests.With(route, r.Method, strconv.Itoa(code)).Inc()
		mHTTPDuration.With(route).ObserveDuration(elapsed)
		// Polling traffic (worker long-polls and heartbeats, probe and
		// scrape endpoints) logs at debug; one line per poll at info would
		// drown the lines that matter.
		lvl := slog.LevelInfo
		switch route {
		case "/v1/workers/{id}/lease", "/v1/workers/{id}/heartbeat",
			"/v1/healthz", "/metrics":
			lvl = slog.LevelDebug
		}
		logger.Log(r.Context(), lvl, "http request",
			obs.KeyRequestID, rid,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"code", code,
			"bytes", sw.bytes,
			"duration", elapsed.String(),
		)
	})
}
