package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
)

// parseExposition fetches a /metrics exposition and parses every sample
// line into series -> value (series is the literal "name{labels}" text),
// failing on anything the text format forbids. Metrics are process-global,
// so tests assert deltas between scrapes, never absolutes.
func parseExposition(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestJobsListEndpoint pins GET /v1/jobs: every submitted job appears, in
// submission order, with the same status document GET /v1/jobs/{id} serves.
func TestJobsListEndpoint(t *testing.T) {
	runner := &batch.Runner{Workers: 2, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 2, 16)

	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":1000}}`
	id1 := a.submit(body)
	a.wait(id1)
	id2 := a.submit(`{"experiment":"fig16","params":{"workloads":["lud"],"max_instructions":800}}`)
	a.wait(id2)

	code, data := a.do("GET", "/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d: %s", code, data)
	}
	var list []Status
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}
	if list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("list order = [%s %s], want [%s %s]", list[0].ID, list[1].ID, id1, id2)
	}
	if list[0].Kind != "sweep" || list[1].Kind != "experiment" {
		t.Fatalf("kinds = [%s %s]", list[0].Kind, list[1].Kind)
	}
	for _, st := range list {
		if !st.State.Terminal() {
			t.Fatalf("job %s still %s after wait", st.ID, st.State)
		}
	}
}

// TestHealthzCacheStats pins the /v1/healthz cache block: after a job
// simulates and an identical job answers from the disk cache, the health
// document reports the entry count, on-disk bytes and a nonzero hit ratio.
func TestHealthzCacheStats(t *testing.T) {
	dc, err := batch.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := &batch.Runner{Workers: 2, Cache: dc, RunFn: fakeRun}
	a := newAPI(t, runner, 1, 16)

	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":1000}}`
	a.wait(a.submit(body))
	a.wait(a.submit(body)) // warm: must answer from the disk cache

	code, data := a.do("GET", "/v1/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d: %s", code, data)
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatalf("healthz has no cache block: %s", data)
	}
	c := h.Cache
	if c.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", c.Entries)
	}
	if c.DiskBytes <= 0 {
		t.Fatalf("cache disk_bytes = %d, want > 0", c.DiskBytes)
	}
	if c.Hits < 1 || c.Misses != 1 {
		t.Fatalf("cache traffic hits=%d misses=%d, want >=1 and 1", c.Hits, c.Misses)
	}
	if c.HitRatio <= 0 || c.HitRatio >= 1 {
		t.Fatalf("hit_ratio = %v, want in (0,1)", c.HitRatio)
	}
}

// TestJobTimingBreakdown pins the machine-readable timing block on
// GET /v1/jobs/{id}: a really-simulated job reports queue wait, run time,
// summed cell wall time and a nonzero per-phase split whose components are
// bounded by the cells' wall time.
func TestJobTimingBreakdown(t *testing.T) {
	runner := batch.NewRunner(2, batch.NewMemCache()) // nil RunFn: real simulation
	a := newAPI(t, runner, 1, 16)

	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":800}}`
	st := a.wait(a.submit(body))
	if st.State != StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	tm := st.Timing
	if tm == nil {
		t.Fatal("finished job has no timing block")
	}
	if tm.QueueWait < 0 || tm.Run <= 0 {
		t.Fatalf("queue_wait=%v run=%v", tm.QueueWait, tm.Run)
	}
	if tm.CellsWall <= 0 {
		t.Fatalf("cells_wall = %v, want > 0", tm.CellsWall)
	}
	if tm.RemoteCells != 0 {
		t.Fatalf("remote_cells = %d on a local run", tm.RemoteCells)
	}
	if tm.Phases.IsZero() {
		t.Fatal("phase split is zero for a simulated cell")
	}
	if total := tm.Phases.Total(); total > tm.CellsWall {
		t.Fatalf("phase total %v exceeds cells wall %v", total, tm.CellsWall)
	}

	// A warm rerun answers from cache: the phase split stays zero (nothing
	// simulated) while wall time is still accounted.
	st2 := a.wait(a.submit(body))
	if st2.CacheHits != 1 {
		t.Fatalf("warm rerun cache_hits = %d, want 1", st2.CacheHits)
	}
	if !st2.Timing.Phases.IsZero() {
		t.Fatalf("warm rerun phases = %+v, want zero", st2.Timing.Phases)
	}
}

// TestMiddlewareCountsConcurrentRequests pins the HTTP middleware under
// concurrency: N parallel requests across two routes bump the per-route
// counters and latency histograms by exactly N, with normalized (bounded
// cardinality) route labels, and the exposition stays parseable throughout.
// Metrics are process-global, so everything is asserted as a delta.
func TestMiddlewareCountsConcurrentRequests(t *testing.T) {
	runner := &batch.Runner{Workers: 1, Cache: batch.NewMemCache(), RunFn: fakeRun}
	m := NewManager(runner, 1, 8)
	ts := httptest.NewServer(Instrument(nil, NewHandler(m)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	healthSeries := `ohm_http_requests_total{route="/v1/healthz",method="GET",code="200"}`
	missSeries := `ohm_http_requests_total{route="/v1/jobs/{id}",method="GET",code="404"}`
	histSeries := `ohm_http_request_duration_seconds_count{route="/v1/healthz"}`
	before := parseExposition(t, ts.URL)

	const n = 40
	var wg sync.WaitGroup
	wg.Add(2 * n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
			}
		}()
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/no-such-%d", ts.URL, i))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	after := parseExposition(t, ts.URL)
	if d := after[healthSeries] - before[healthSeries]; d != n {
		t.Fatalf("healthz counter delta = %v, want %d", d, n)
	}
	if d := after[missSeries] - before[missSeries]; d != n {
		t.Fatalf("jobs/{id} 404 counter delta = %v, want %d (ids must collapse to one series)", d, n)
	}
	if d := after[histSeries] - before[histSeries]; d != n {
		t.Fatalf("healthz histogram count delta = %v, want %d", d, n)
	}
	// The scrape itself is in flight while the exposition renders, so the
	// gauge reads 1 in both scrapes; what must hold is that the burst left
	// nothing behind (every Inc matched a Dec).
	if d := after["ohm_http_in_flight_requests"] - before["ohm_http_in_flight_requests"]; d != 0 {
		t.Fatalf("in-flight gauge delta = %v, want 0 after the burst", d)
	}
}

// TestRouteLabelCardinality pins the normalization table: arbitrary paths
// must not mint new series.
func TestRouteLabelCardinality(t *testing.T) {
	cases := map[string]string{
		"/v1/jobs":                     "/v1/jobs",
		"/v1/jobs/job-000001":          "/v1/jobs/{id}",
		"/v1/jobs/job-000001/result":   "/v1/jobs/{id}/result",
		"/v1/jobs/a/b/c":               "other",
		"/v1/workers/register":         "/v1/workers/register",
		"/v1/workers/w-0001/lease":     "/v1/workers/{id}/lease",
		"/v1/workers/w-0001/complete":  "/v1/workers/{id}/complete",
		"/v1/workers/w-0001/heartbeat": "/v1/workers/{id}/heartbeat",
		"/v1/workers/w-0001/steal":     "other",
		"/metrics":                     "/metrics",
		"/v1/healthz":                  "/v1/healthz",
		"/healthz":                     "other",
		"/anything/else":               "other",
		"/":                            "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
