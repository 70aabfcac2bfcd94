package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeRun is an instant deterministic RunFunc for API-mechanics tests that
// don't need a real simulation.
func fakeRun(cfg config.Config, workload string) (stats.Report, error) {
	return stats.Report{
		IPC:      float64(cfg.Platform) + float64(len(workload)),
		Elapsed:  sim.Time(cfg.MaxInstructions) * sim.Nanosecond,
		EnergyPJ: map[string]float64{"laser": 1},
		Extra:    map[string]float64{},
	}, nil
}

// api wraps an httptest server over a fresh manager.
type api struct {
	t  *testing.T
	ts *httptest.Server
	m  *Manager
}

func newAPI(t *testing.T, runner *batch.Runner, workers, queue int) *api {
	t.Helper()
	m := NewManager(runner, workers, queue)
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return &api{t: t, ts: ts, m: m}
}

// do issues a request and returns (status code, body).
func (a *api) do(method, path string, body string) (int, []byte) {
	a.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, a.ts.URL+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submit posts a job and returns its id.
func (a *api) submit(body string) string {
	a.t.Helper()
	code, data := a.do("POST", "/v1/sweeps", body)
	if code != http.StatusAccepted {
		a.t.Fatalf("submit = %d: %s", code, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		a.t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		a.t.Fatalf("submit status = %+v", st)
	}
	return st.ID
}

// wait polls the job until it reaches a terminal state.
func (a *api) wait(id string) Status {
	a.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, data := a.do("GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			a.t.Fatalf("status = %d: %s", code, data)
		}
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			a.t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.t.Fatalf("job %s never finished", id)
	return Status{}
}

// TestEndToEndExperimentRoundTrip is the acceptance path: submit a fig16
// job, poll to completion, fetch the JSON result and require it
// byte-identical to what `ohmfig -json fig16` emits for the same
// parameters; then resubmit the identical request and require it to
// complete with zero new simulations — every cell a cache hit.
func TestEndToEndExperimentRoundTrip(t *testing.T) {
	runner := batch.NewRunner(4, batch.NewMemCache())
	a := newAPI(t, runner, 2, 16)
	body := `{"experiment":"fig16","params":{"workloads":["lud"],"max_instructions":800}}`

	id := a.submit(body)
	st := a.wait(id)
	if st.State != StateDone {
		t.Fatalf("job = %+v", st)
	}
	// fig16 sweeps all 7 platforms in both modes for the one workload.
	if st.CellsTotal != 14 || st.CellsDone != 14 {
		t.Fatalf("cells = %d/%d, want 14/14", st.CellsDone, st.CellsTotal)
	}
	if st.Simulated != 14 || st.CacheHits != 0 {
		t.Fatalf("cold job: simulated=%d hits=%d, want 14/0", st.Simulated, st.CacheHits)
	}

	code, got := a.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, got)
	}
	// What ohmfig -json prints for the same parameters (same driver, same
	// encoder; the simulator is deterministic so the runs agree).
	d, _ := experiments.Lookup("fig16")
	r, err := d.RunParams(experiments.Params{Workloads: []string{"lud"}, MaxInstructions: 800})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.EncodeResultJSON(&want, "fig16", r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served result differs from ohmfig -json output:\n--- served ---\n%s\n--- ohmfig ---\n%s", got, want.Bytes())
	}

	// Warm resubmission: identical spec, zero new simulations.
	id2 := a.submit(body)
	st2 := a.wait(id2)
	if st2.State != StateDone {
		t.Fatalf("warm job = %+v", st2)
	}
	if st2.Simulated != 0 || st2.CacheHits != 14 {
		t.Fatalf("warm job: simulated=%d hits=%d, want 0/14", st2.Simulated, st2.CacheHits)
	}
	_, got2 := a.do("GET", "/v1/jobs/"+id2+"/result", "")
	if !bytes.Equal(got, got2) {
		t.Fatal("warm result differs from cold result")
	}
}

// TestSweepJobFormats covers raw SweepSpec jobs and JSON/CSV negotiation.
func TestSweepJobFormats(t *testing.T) {
	runner := &batch.Runner{Workers: 2, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 1, 8)
	id := a.submit(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud","sssp"]}}`)
	st := a.wait(id)
	if st.State != StateDone || st.Kind != "sweep" || st.CellsTotal != 2 {
		t.Fatalf("job = %+v", st)
	}

	code, data := a.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, data)
	}
	var rows []batch.Row
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Platform != "Ohm-base" || rows[1].Workload != "sssp" {
		t.Fatalf("rows = %+v", rows)
	}

	code, data = a.do("GET", "/v1/jobs/"+id+"/result?format=csv", "")
	if code != http.StatusOK {
		t.Fatalf("csv result = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "index,platform,mode,workload") {
		t.Fatalf("csv = %q", data)
	}

	// Accept-header negotiation picks CSV too.
	req, _ := http.NewRequest("GET", a.ts.URL+"/v1/jobs/"+id+"/result", nil)
	req.Header.Set("Accept", "text/csv")
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Accept: text/csv served %q", ct)
	}
}

// gatedRunner returns a runner whose simulations block until release is
// closed, plus the started channel signalled once per begun simulation.
func gatedRunner(workers int, calls *atomic.Int64) (*batch.Runner, chan struct{}, chan struct{}) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	run := func(cfg config.Config, w string) (stats.Report, error) {
		calls.Add(1)
		started <- struct{}{}
		<-release
		return fakeRun(cfg, w)
	}
	return &batch.Runner{Workers: workers, Cache: batch.NewMemCache(), RunFn: run}, started, release
}

// TestCancelRunningAndQueuedJobs covers DELETE /v1/jobs/{id}: a running
// job stops scheduling new cells and ends cancelled; a queued job is
// cancelled in place without ever running.
func TestCancelRunningAndQueuedJobs(t *testing.T) {
	var calls atomic.Int64
	runner, started, release := gatedRunner(1, &calls)
	a := newAPI(t, runner, 1, 8)

	// 4-cell sweep on a 1-worker runner: cell 0 blocks in the gate.
	running := a.submit(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud","sssp","pagerank","bfstopo"]}}`)
	<-started
	// Single job worker: this one waits in the FIFO queue.
	queued := a.submit(`{"spec":{"platforms":["oracle"],"modes":["planar"],"workloads":["lud"]}}`)

	if code, data := a.do("DELETE", "/v1/jobs/"+queued, ""); code != http.StatusOK {
		t.Fatalf("cancel queued = %d: %s", code, data)
	}
	code, data := a.do("GET", "/v1/jobs/"+queued, "")
	var st Status
	if err := json.Unmarshal(data, &st); err != nil || code != http.StatusOK {
		t.Fatalf("queued status = %d %v", code, err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled immediately", st.State)
	}

	if code, data := a.do("DELETE", "/v1/jobs/"+running, ""); code != http.StatusOK {
		t.Fatalf("cancel running = %d: %s", code, data)
	}
	close(release) // let the in-flight cell drain
	st = a.wait(running)
	if st.State != StateCancelled {
		t.Fatalf("running job state = %s, want cancelled", st.State)
	}
	if st.CellsDone >= st.CellsTotal {
		t.Fatalf("cancelled job claims completion: %d/%d", st.CellsDone, st.CellsTotal)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cancelled jobs simulated %d cells, want only the in-flight one", got)
	}

	// Results of cancelled jobs are gone; the queued job never simulated.
	if code, _ := a.do("GET", "/v1/jobs/"+running+"/result", ""); code != http.StatusGone {
		t.Fatalf("cancelled result = %d, want 410", code)
	}
}

// TestCancelledResultBody is the regression test for the cancelled-job
// result endpoint: 410 must carry a machine-readable {state, reason}
// envelope (plus the human error sentence), not a generic error body that
// clients have to string-match.
func TestCancelledResultBody(t *testing.T) {
	// A queued job cancelled before running is the clean repro: no result
	// was ever produced.
	var calls atomic.Int64
	gr, started, release := gatedRunner(1, &calls)
	b := newAPI(t, gr, 1, 8)
	blocker := b.submit(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud"]}}`)
	<-started
	victim := b.submit(`{"spec":{"platforms":["oracle"],"modes":["planar"],"workloads":["lud"]}}`)
	if code, data := b.do("DELETE", "/v1/jobs/"+victim, ""); code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", code, data)
	}
	code, data := b.do("GET", "/v1/jobs/"+victim+"/result", "")
	if code != http.StatusGone {
		t.Fatalf("cancelled result = %d, want 410: %s", code, data)
	}
	var body struct {
		Error  string `json:"error"`
		State  State  `json:"state"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("cancelled result body is not the structured envelope: %v (%s)", err, data)
	}
	if body.State != StateCancelled {
		t.Fatalf("body.state = %q, want %q", body.State, StateCancelled)
	}
	if body.Reason != ReasonJobCancelled {
		t.Fatalf("body.reason = %q, want %q", body.Reason, ReasonJobCancelled)
	}
	if !strings.Contains(body.Error, victim) {
		t.Fatalf("body.error %q does not name the job", body.Error)
	}
	close(release)
	b.wait(blocker)
}

// TestTwoJobsShareOneSimulation: two concurrent jobs requesting the same
// cell must simulate it once — the single-flight guarantee across jobs.
func TestTwoJobsShareOneSimulation(t *testing.T) {
	var calls atomic.Int64
	runner, started, release := gatedRunner(2, &calls)
	a := newAPI(t, runner, 2, 8)

	spec := `{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud"]}}`
	id1 := a.submit(spec)
	<-started // job 1 leads the cell's simulation
	id2 := a.submit(spec)

	// Wait until job 2 is running (it joins job 1's in-flight cell).
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := a.do("GET", "/v1/jobs/"+id2, "")
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	st1, st2 := a.wait(id1), a.wait(id2)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("states = %s/%s", st1.State, st2.State)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("two identical jobs simulated %d times, want 1", got)
	}
	if st1.Simulated+st2.Simulated != 1 || st1.CacheHits+st2.CacheHits != 1 {
		t.Fatalf("cell accounting: job1 sim=%d hit=%d, job2 sim=%d hit=%d",
			st1.Simulated, st1.CacheHits, st2.Simulated, st2.CacheHits)
	}
	// Identical results from both jobs.
	_, r1 := a.do("GET", "/v1/jobs/"+id1+"/result", "")
	_, r2 := a.do("GET", "/v1/jobs/"+id2+"/result", "")
	if !bytes.Equal(r1, r2) {
		t.Fatal("shared-cell jobs returned different results")
	}
}

// TestQueueBoundsAndValidation covers admission control and bad requests.
func TestQueueBoundsAndValidation(t *testing.T) {
	var calls atomic.Int64
	runner, started, release := gatedRunner(1, &calls)
	a := newAPI(t, runner, 1, 1)
	defer close(release)

	spec := func(w string) string {
		return fmt.Sprintf(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":[%q]}}`, w)
	}
	a.submit(spec("lud")) // running (blocked in the gate)
	<-started
	queued := a.submit(spec("sssp")) // fills the depth-1 queue
	if code, data := a.do("POST", "/v1/sweeps", spec("pagerank")); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit = %d: %s", code, data)
	}
	// Cancelling the queued job frees its slot immediately.
	if code, _ := a.do("DELETE", "/v1/jobs/"+queued, ""); code != http.StatusOK {
		t.Fatal("cancel queued failed")
	}
	a.submit(spec("bfstopo"))
	if code, _ := a.do("POST", "/v1/sweeps", spec("pagerank")); code != http.StatusServiceUnavailable {
		t.Fatalf("queue bound lost after cancel+refill: %d", code)
	}

	for _, bad := range []struct {
		body string
		want int
	}{
		{`{"experiment":"fig99"}`, http.StatusBadRequest},
		{`{"experiment":"fig16","spec":{}}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		if code, data := a.do("POST", "/v1/sweeps", bad.body); code != bad.want {
			t.Fatalf("submit %q = %d (%s), want %d", bad.body, code, data, bad.want)
		}
	}

	if code, _ := a.do("GET", "/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Fatal("unknown job not 404")
	}
	if code, _ := a.do("DELETE", "/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Fatal("unknown job DELETE not 404")
	}
	// Result of an unfinished job: 409 with its status.
	code, data := a.do("GET", "/v1/jobs/job-000001/result", "")
	if code != http.StatusConflict {
		t.Fatalf("unfinished result = %d: %s", code, data)
	}
}

// TestExperimentsListingAndHealth covers the discovery endpoints.
func TestExperimentsListingAndHealth(t *testing.T) {
	runner := &batch.Runner{Workers: 1, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 1, 4)

	code, data := a.do("GET", "/v1/experiments", "")
	if code != http.StatusOK {
		t.Fatalf("experiments = %d", code)
	}
	var list []struct {
		ID          string `json:"id"`
		Title       string `json:"title"`
		PerWorkload bool   `json:"per_workload"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(experiments.IDs()) {
		t.Fatalf("listed %d drivers, registry has %d", len(list), len(experiments.IDs()))
	}
	seen := map[string]bool{}
	for _, e := range list {
		seen[e.ID] = true
		if e.Title == "" {
			t.Fatalf("%s listed without title", e.ID)
		}
	}
	if !seen["fig16"] || !seen["abl-mshr"] || !seen["endurance"] {
		t.Fatalf("listing missing expected ids: %v", seen)
	}

	code, data = a.do("GET", "/v1/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(data), `"status": "ok"`) {
		t.Fatalf("healthz = %d: %s", code, data)
	}
	// The API mux serves liveness under /v1 only.
	if code, _ = a.do("GET", "/healthz", ""); code != http.StatusNotFound {
		t.Fatalf("legacy /healthz = %d, want 404", code)
	}
}

// TestShutdownDrains: Shutdown finishes queued and running jobs, then
// refuses new submissions.
func TestShutdownDrains(t *testing.T) {
	var calls atomic.Int64
	runner, started, release := gatedRunner(1, &calls)
	m := NewManager(runner, 1, 8)

	j1, err := m.Submit(Request{Spec: &batch.SweepSpec{
		Platforms: []config.Platform{config.OhmBase},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Request{Spec: &batch.SweepSpec{
		Platforms: []config.Platform{config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Shutdown(ctx)
		close(done)
	}()
	// Drain must let both the running and the queued job finish.
	close(release)
	<-done
	if s := j1.Status().State; s != StateDone {
		t.Fatalf("running job after drain = %s", s)
	}
	if s := j2.Status().State; s != StateDone {
		t.Fatalf("queued job after drain = %s", s)
	}
	if _, err := m.Submit(Request{Experiment: "fig16"}); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestExperimentIDCanonicalized: submission accepts any case (Lookup is
// case-insensitive) but status and result must carry the registry
// spelling, preserving byte-identity with `ohmfig -json <id>`.
func TestExperimentIDCanonicalized(t *testing.T) {
	runner := &batch.Runner{Workers: 1, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 1, 4)
	id := a.submit(`{"experiment":"FIG20B"}`)
	st := a.wait(id)
	if st.State != StateDone || st.Experiment != "fig20b" {
		t.Fatalf("status = %+v, want canonical experiment id fig20b", st)
	}
	_, data := a.do("GET", "/v1/jobs/"+id+"/result", "")
	if !bytes.HasPrefix(data, []byte("{\n  \"id\": \"fig20b\",")) {
		t.Fatalf("result document id not canonical:\n%s", data[:40])
	}
}

// TestFinishedJobRetention: the manager evicts the oldest finished jobs
// beyond Retain so a long-lived daemon stays bounded; live jobs survive.
func TestFinishedJobRetention(t *testing.T) {
	runner := &batch.Runner{Workers: 2, Cache: batch.NewMemCache(), RunFn: fakeRun}
	m := NewManager(runner, 1, 16)
	m.Retain = 2
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	a := &api{t: t, ts: ts, m: m}

	var ids []string
	for _, w := range []string{"lud", "sssp", "pagerank", "bfstopo"} {
		id := a.submit(fmt.Sprintf(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":[%q]}}`, w))
		a.wait(id)
		ids = append(ids, id)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("retained %d finished jobs, want 2", got)
	}
	// The two oldest are evicted (404), the two newest still answer.
	for _, id := range ids[:2] {
		if code, _ := a.do("GET", "/v1/jobs/"+id, ""); code != http.StatusNotFound {
			t.Fatalf("evicted job %s = %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := a.do("GET", "/v1/jobs/"+id+"/result", ""); code != http.StatusOK {
			t.Fatalf("retained job %s result = %d, want 200", id, code)
		}
	}
}

// TestScenarioSubmission covers the scenario form of POST /v1/sweeps: a
// declarative {preset, mode, overrides, workload} document runs as a
// one-cell sweep, with custom workloads carried through to the result rows.
func TestScenarioSubmission(t *testing.T) {
	runner := &batch.Runner{Workers: 2, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 1, 8)

	id := a.submit(`{"scenario":{
		"preset": "ohm-base",
		"mode": "two-level",
		"overrides": {"optical.waveguides": 2, "xpoint.write_latency_ns": 1200,
		              "max_instructions": 800},
		"workload": {"name": "streamwrite", "apki": 120, "read_ratio": 0.35,
		             "footprint_scale": 3.0, "hot_skew": 0.8}}}`)
	st := a.wait(id)
	if st.State != StateDone || st.Kind != "sweep" || st.CellsTotal != 1 {
		t.Fatalf("scenario job = %+v", st)
	}
	code, data := a.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, data)
	}
	var rows []batch.Row
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Platform != "Ohm-base" || rows[0].Workload != "streamwrite" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].WorkloadDef == nil || rows[0].WorkloadDef.APKI != 120 {
		t.Fatalf("custom workload def lost from the row: %+v", rows[0])
	}
	if rows[0].Waveguides != 2 {
		t.Fatalf("override not applied: waveguides = %d", rows[0].Waveguides)
	}

	// Identical resubmission is served entirely from cache.
	id2 := a.submit(`{"scenario":{
		"preset": "ohm-base",
		"mode": "two-level",
		"overrides": {"optical.waveguides": 2, "xpoint.write_latency_ns": 1200,
		              "max_instructions": 800},
		"workload": {"name": "streamwrite", "apki": 120, "read_ratio": 0.35,
		             "footprint_scale": 3.0, "hot_skew": 0.8}}}`)
	st2 := a.wait(id2)
	if st2.Simulated != 0 || st2.CacheHits != 1 {
		t.Fatalf("warm scenario resubmit: %+v", st2)
	}
}

// TestSpecValidationAt400 pins that malformed specs and scenarios are
// rejected at submission with the offending path in the body, instead of
// becoming failed jobs.
func TestSpecValidationAt400(t *testing.T) {
	runner := &batch.Runner{Workers: 1, Cache: batch.NewMemCache(), RunFn: fakeRun}
	a := newAPI(t, runner, 1, 4)
	cases := []struct {
		body string
		want string
	}{
		{`{"spec":{"overrides":{"gpu.typo": 1}}}`, "gpu.typo"},
		{`{"spec":{"overrides":{"optical.waveguides": "many"}}}`, "optical.waveguides"},
		{`{"spec":{"workloads":["nope"]}}`, "nope"},
		{`{"spec":{"overrides":{"optical.waveguides": 0}}}`, "waveguides"},
		{`{"scenario":{"preset":"warp-drive"}}`, "warp-drive"},
		{`{"scenario":{"overrides":{"dram.typo": 1}}}`, "dram.typo"},
		{`{"scenario":{"workload":{"name":"x","apki":0}}}`, "apki"},
		// Fewer electrical channels than memory controllers panics a cell.
		{`{"scenario": {"preset": "hetero", "overrides": {"electrical.channels": 3}}}`, "electrical.channels"},
		{`{"spec":{},"scenario":{}}`, "exactly one"},
	}
	for _, c := range cases {
		code, data := a.do("POST", "/v1/sweeps", c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Fatalf("submit %s = %d (%s), want 400 mentioning %q", c.body, code, data, c.want)
		}
	}
}

// TestNonFiniteOverrideRejectedAt400: a NaN optical clock panics the
// event loop, and nothing in the server recovers a panic, so a sweep that
// asks for one must fail at submission. The runner simulates for real, so
// a spec that got through would end the test binary instead of answering.
func TestNonFiniteOverrideRejectedAt400(t *testing.T) {
	a := newAPI(t, batch.NewRunner(1, batch.NewMemCache()), 1, 4)
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		body := `{"spec":{"platforms":["ohm-bw"],"modes":["planar"],"workloads":["lud"],` +
			`"max_instructions":300,"overrides":{"optical.freq_hz":["` + v + `"]}}}`
		code, data := a.do("POST", "/v1/sweeps", body)
		if code != http.StatusBadRequest || !strings.Contains(string(data), "optical.freq_hz") {
			t.Fatalf("freq_hz=%s: submit = %d (%s), want 400 naming the path", v, code, data)
		}
	}
	if code, data := a.do("GET", "/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz after rejected submissions = %d: %s", code, data)
	}
	st := a.wait(a.submit(`{"spec":{"platforms":["ohm-bw"],"modes":["planar"],"workloads":["lud"],"max_instructions":300}}`))
	if st.State != StateDone {
		t.Fatalf("finite sweep after rejected ones: %+v", st)
	}
}

// TestDiscoveryEndpoints covers GET /v1/platforms, /v1/workloads and
// /v1/healthz.
func TestDiscoveryEndpoints(t *testing.T) {
	var calls atomic.Int64
	runner, started, release := gatedRunner(1, &calls)
	a := newAPI(t, runner, 1, 8)

	code, data := a.do("GET", "/v1/platforms", "")
	if code != http.StatusOK {
		t.Fatalf("platforms = %d", code)
	}
	var platforms []struct {
		Name          string   `json:"name"`
		Title         string   `json:"title"`
		Optical       bool     `json:"optical"`
		Heterogeneous bool     `json:"heterogeneous"`
		Modes         []string `json:"modes"`
	}
	if err := json.Unmarshal(data, &platforms); err != nil {
		t.Fatal(err)
	}
	if len(platforms) != 7 || platforms[0].Name != "origin" || platforms[5].Name != "ohm-bw" {
		t.Fatalf("platforms = %+v", platforms)
	}
	for _, p := range platforms {
		// Two memory modes x two execution modes, every token parseable.
		if p.Title == "" || len(p.Modes) != 4 {
			t.Fatalf("platform entry incomplete: %+v", p)
		}
		for _, tok := range p.Modes {
			if _, _, err := config.ParseModes(tok); err != nil {
				t.Fatalf("advertised mode %q does not parse: %v", tok, err)
			}
		}
	}
	if platforms[0].Optical || !platforms[5].Optical {
		t.Fatal("optical flags wrong")
	}

	code, data = a.do("GET", "/v1/workloads", "")
	if code != http.StatusOK {
		t.Fatalf("workloads = %d", code)
	}
	var workloads []config.Workload
	if err := json.Unmarshal(data, &workloads); err != nil {
		t.Fatal(err)
	}
	if len(workloads) != 10 || workloads[0].Name != "backp" || workloads[8].APKI != 599 {
		t.Fatalf("workloads = %+v", workloads)
	}

	// /v1/healthz: idle, then with one running and one queued job.
	readHealth := func() Health {
		code, data := a.do("GET", "/v1/healthz", "")
		if code != http.StatusOK {
			t.Fatalf("healthz = %d: %s", code, data)
		}
		var h Health
		if err := json.Unmarshal(data, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := readHealth()
	if h.Status != "ok" || h.JobsQueued != 0 || h.JobsRunning != 0 || h.QueueCapacity != 8 {
		t.Fatalf("idle health = %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %+v", h)
	}

	a.submit(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud"]}}`)
	<-started // the job is running, blocked in the gate
	a.submit(`{"spec":{"platforms":["ohm-base"],"modes":["planar"],"workloads":["sssp"]}}`)
	h = readHealth()
	if h.JobsRunning != 1 || h.JobsQueued != 1 {
		t.Fatalf("loaded health = %+v", h)
	}
	close(release)
}
