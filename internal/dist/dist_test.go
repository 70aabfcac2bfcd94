package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeRun is an instant deterministic RunFunc so protocol tests don't pay
// for real simulations; the cell's identity is recoverable from the
// report, which is what the byte-identity assertions compare.
func fakeRun(cfg config.Config, workload string) (stats.Report, error) {
	return stats.Report{
		IPC:      float64(cfg.Platform)*10 + float64(len(workload)),
		Elapsed:  sim.Time(cfg.MaxInstructions) * sim.Nanosecond,
		EnergyPJ: map[string]float64{"laser": float64(cfg.Mode) + 1},
		Extra:    map[string]float64{},
	}, nil
}

// cluster is one coordinator: shared runner + dispatcher + job manager,
// all behind a single httptest server carrying both the job API and the
// worker protocol.
type cluster struct {
	t      *testing.T
	runner *batch.Runner
	d      *dist.Dispatcher
	m      *serve.Manager
	ts     *httptest.Server
}

// newCluster builds a coordinator. localSlots < 0 makes it a pure
// dispatcher (every cell must travel to a worker); tune shrinks the
// protocol timers per test.
func newCluster(t *testing.T, localSlots int, tune func(*dist.Dispatcher)) *cluster {
	t.Helper()
	runner := batch.NewRunner(4, batch.NewMemCache())
	runner.RunFn = fakeRun
	d := dist.NewDispatcher(runner)
	d.LocalSlots = localSlots
	d.LeaseTTL = 500 * time.Millisecond
	d.LeasePoll = 100 * time.Millisecond
	if tune != nil {
		tune(d)
	}
	m := serve.NewManager(runner, 2, 16)
	m.Executor = d
	mux := http.NewServeMux()
	dist.Register(mux, d)
	mux.Handle("/", serve.NewHandler(m))
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
		d.Close()
		ts.Close()
	})
	return &cluster{t: t, runner: runner, d: d, m: m, ts: ts}
}

// do issues one request against the coordinator API.
func (c *cluster) do(method, path, body string) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.ts.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submit posts a job body and returns the job id.
func (c *cluster) submit(body string) string {
	c.t.Helper()
	code, data := c.do("POST", "/v1/sweeps", body)
	if code != http.StatusAccepted {
		c.t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		c.t.Fatal(err)
	}
	return st.ID
}

// wait polls a job until it reaches a terminal state.
func (c *cluster) wait(id string, timeout time.Duration) serve.Status {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, data := c.do("GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			c.t.Fatalf("job %s: HTTP %d: %s", id, code, data)
		}
		var st serve.Status
		if err := json.Unmarshal(data, &st); err != nil {
			c.t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %s after %s (%d/%d cells)", id, st.State, timeout, st.CellsDone, st.CellsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// result fetches a finished job's result bytes.
func (c *cluster) result(id string) []byte {
	c.t.Helper()
	code, data := c.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		c.t.Fatalf("result %s: HTTP %d: %s", id, code, data)
	}
	return data
}

// startWorker runs a real Worker against the cluster with its own runner
// and cache; runFn nil means real simulations. The returned stop is the
// graceful SIGTERM path (deregister → requeue).
func startWorker(t *testing.T, url string, runFn batch.RunFunc, capacity int) (stop func()) {
	t.Helper()
	r := batch.NewRunner(capacity, batch.NewMemCache())
	r.RunFn = runFn
	w := &dist.Worker{Coordinator: url, Runner: r, Capacity: capacity, Name: "test-worker"}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// rawWorker drives the wire protocol by hand — the "worker that
// misbehaves" every fault test needs.
type rawWorker struct {
	t   *testing.T
	url string
	id  string
}

func newRawWorker(t *testing.T, c *cluster) *rawWorker {
	t.Helper()
	w := &rawWorker{t: t, url: c.ts.URL}
	var resp dist.RegisterResponse
	w.post("/v1/workers/register", dist.RegisterRequest{Name: "raw", Capacity: 1}, &resp)
	if resp.WorkerID == "" {
		t.Fatal("raw worker: empty id")
	}
	w.id = resp.WorkerID
	return w
}

func (w *rawWorker) post(path string, in, out interface{}) int {
	w.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			w.t.Fatalf("%s: decode %s: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func (w *rawWorker) lease(max int) []dist.WireCell {
	var resp dist.LeaseResponse
	w.post("/v1/workers/"+w.id+"/lease", dist.LeaseRequest{Max: max}, &resp)
	return resp.Cells
}

func (w *rawWorker) complete(req dist.CompleteRequest) dist.CompleteResponse {
	var resp dist.CompleteResponse
	w.post("/v1/workers/"+w.id+"/complete", req, &resp)
	return resp
}

func (w *rawWorker) heartbeat(ids []string) dist.HeartbeatResponse {
	var resp dist.HeartbeatResponse
	w.post("/v1/workers/"+w.id+"/heartbeat", dist.HeartbeatRequest{TaskIDs: ids}, &resp)
	return resp
}

// sixCells is a small sweep body expanding to 2 platforms x 3 workloads.
const sixCells = `{"spec":{"platforms":["origin","ohm-bw"],"modes":["planar"],"workloads":["lud","bfsdata","pagerank"],"max_instructions":1000}}`

// referenceBytes runs the same job on a plain single-process manager
// (LocalExecutor, same fake RunFn) and returns its result bytes.
func referenceBytes(t *testing.T, body string) []byte {
	t.Helper()
	runner := batch.NewRunner(4, batch.NewMemCache())
	runner.RunFn = fakeRun
	m := serve.NewManager(runner, 1, 8)
	ts := httptest.NewServer(serve.NewHandler(m))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	c := &cluster{t: t, ts: ts, m: m, runner: runner}
	id := c.submit(body)
	if st := c.wait(id, 20*time.Second); st.State != serve.StateDone {
		t.Fatalf("reference job: %s (%s)", st.State, st.Error)
	}
	return c.result(id)
}

// TestDistributedSweepMatchesSingleProcess is the core contract: a sweep
// dispatched to two remote workers returns byte-identical results to the
// single-process path, and a warm resubmit answers entirely from the
// coordinator's cache.
func TestDistributedSweepMatchesSingleProcess(t *testing.T) {
	c := newCluster(t, -1, nil) // pure dispatch: every cell must travel
	startWorker(t, c.ts.URL, fakeRun, 2)
	startWorker(t, c.ts.URL, fakeRun, 2)

	id := c.submit(sixCells)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.Simulated == 0 {
		t.Fatalf("expected fresh simulations on a cold cluster, got 0 (hits=%d)", st.CacheHits)
	}
	got := c.result(id)
	want := referenceBytes(t, sixCells)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed result differs from single-process:\n got: %s\nwant: %s", got, want)
	}

	// Warm resubmit: every cell answers from the coordinator cache — the
	// workers are never consulted.
	id2 := c.submit(sixCells)
	st2 := c.wait(id2, 10*time.Second)
	if st2.State != serve.StateDone {
		t.Fatalf("warm job: %s (%s)", st2.State, st2.Error)
	}
	if st2.Simulated != 0 {
		t.Fatalf("warm resubmit simulated %d cells, want 0", st2.Simulated)
	}
	if got2 := c.result(id2); !bytes.Equal(got2, got) {
		t.Fatal("warm resubmit bytes differ from cold run")
	}
}

// TestDistributedFig16MatchesGolden runs the acceptance scenario with
// real simulations: an experiment at -quick dispatched to two workers must
// be byte-identical to its committed golden report (which the
// single-process golden test also pins). Besides fig16, every driver whose
// cells run a core.Variant — another host link, a phased trace, a probe —
// goes through the pure dispatcher too, and the coordinator's own runner
// must simulate nothing: every variant cell travels.
func TestDistributedFig16MatchesGolden(t *testing.T) {
	for _, id := range []string{"fig16", "fig3a", "fig3b", "endurance",
		"abl-startgap", "abl-mshr", "abl-division", "abl-phases"} {
		t.Run(id, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".json"))
			if err != nil {
				t.Skipf("golden corpus not built yet: %v", err)
			}
			c := newCluster(t, -1, func(d *dist.Dispatcher) {
				d.LeaseTTL = 10 * time.Second // real cells can take a while under -race
			})
			c.runner.RunFn = nil // real simulations end to end
			startWorker(t, c.ts.URL, nil, 2)
			startWorker(t, c.ts.URL, nil, 2)

			jobID := c.submit(`{"experiment":"` + id + `","params":{"quick":true}}`)
			st := c.wait(jobID, 5*time.Minute)
			if st.State != serve.StateDone {
				t.Fatalf("job: %s (%s)", st.State, st.Error)
			}
			if got := c.result(jobID); !bytes.Equal(got, golden) {
				t.Fatalf("distributed %s differs from golden (%d vs %d bytes)", id, len(got), len(golden))
			}
			if rs := c.runner.Stats(); rs.Misses != 0 {
				t.Fatalf("pure dispatcher simulated %d cells on the coordinator, want 0", rs.Misses)
			}
		})
	}
}

// TestSingleFlightAcrossJobsDistributed pins that two concurrent jobs
// wanting the same cells share one task each: the worker simulates every
// distinct cell exactly once.
func TestSingleFlightAcrossJobsDistributed(t *testing.T) {
	c := newCluster(t, -1, nil)
	var sims atomic.Int64
	counting := func(cfg config.Config, workload string) (stats.Report, error) {
		sims.Add(1)
		time.Sleep(5 * time.Millisecond)
		return fakeRun(cfg, workload)
	}

	// Submit both jobs before any worker exists, so their cells are
	// queued (and key-deduplicated) before execution starts.
	id1 := c.submit(sixCells)
	id2 := c.submit(sixCells)
	startWorker(t, c.ts.URL, counting, 2)

	st1, st2 := c.wait(id1, 30*time.Second), c.wait(id2, 30*time.Second)
	if st1.State != serve.StateDone || st2.State != serve.StateDone {
		t.Fatalf("jobs: %s/%s", st1.State, st2.State)
	}
	if got := sims.Load(); got != 6 {
		t.Fatalf("worker simulated %d cells for two identical 6-cell jobs, want 6", got)
	}
	// Which job leads on a cell depends on scheduling; the other shared
	// its result, so only the sums are fixed.
	if sim, hits := st1.Simulated+st2.Simulated, st1.CacheHits+st2.CacheHits; sim != 6 || hits != 6 {
		t.Fatalf("jobs simulated %d+%d and hit %d+%d cells, want sums 6 and 6",
			st1.Simulated, st2.Simulated, st1.CacheHits, st2.CacheHits)
	}
	if r1, r2 := c.result(id1), c.result(id2); !bytes.Equal(r1, r2) {
		t.Fatal("the two jobs' results differ")
	}
}

// TestDispatchedJobTiming pins a dispatched job's timing block: on a pure
// dispatcher every cell of a cold job is computed by the remote worker,
// and its warm resubmit is answered from the coordinator's cache without
// a worker.
func TestDispatchedJobTiming(t *testing.T) {
	c := newCluster(t, -1, nil)
	id := c.submit(sixCells)
	startWorker(t, c.ts.URL, fakeRun, 2)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.Timing == nil || st.Timing.RemoteCells != 6 || st.Simulated != 6 {
		t.Fatalf("cold job: simulated %d, timing %+v; want 6 simulated, remote_cells 6", st.Simulated, st.Timing)
	}
	if st.Timing.CellsWall <= 0 {
		t.Fatalf("cold job cells_wall = %v, want > 0", st.Timing.CellsWall)
	}

	warm := c.wait(c.submit(sixCells), 10*time.Second)
	if warm.State != serve.StateDone {
		t.Fatalf("warm job: %s (%s)", warm.State, warm.Error)
	}
	if warm.Timing == nil || warm.Timing.RemoteCells != 0 || warm.CacheHits != 6 {
		t.Fatalf("warm job: cache_hits %d, timing %+v; want 6 hits, remote_cells 0", warm.CacheHits, warm.Timing)
	}
}

// TestWorkStealing pins that an idle worker picks up a cell leased to a
// stalled peer once StealAfter elapses, and that the stalled peer's late
// completion is answered with a revocation instead of corrupting state.
func TestWorkStealing(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.LeaseTTL = 10 * time.Minute // expiry must not rescue the test
		d.StealAfter = 50 * time.Millisecond
	})
	stalled := newRawWorker(t, c)

	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":1000}}`
	id := c.submit(body)

	// The stalled worker takes the only cell and sits on it.
	var wc dist.WireCell
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cells := stalled.lease(1); len(cells) > 0 {
			wc = cells[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled worker never got the cell")
		}
	}

	startWorker(t, c.ts.URL, fakeRun, 1)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got := c.d.Stats().Stolen; got < 1 {
		t.Fatalf("expected at least one steal, got %d", got)
	}
	if !bytes.Equal(c.result(id), referenceBytes(t, body)) {
		t.Fatal("stolen-cell result differs from single-process")
	}

	// The stalled worker finally answers: lease long gone, so the
	// completion is flagged revoked and its report dropped (no live task
	// key remains to verify it against).
	rep, err := fakeRun(wc.Cell().Config, wc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	resp := stalled.complete(dist.CompleteRequest{TaskID: wc.TaskID, Key: wc.Key, Report: &rep})
	if !resp.Revoked {
		t.Fatalf("late completion should report a revoked lease, got %+v", resp)
	}
}

// TestHealthzReportsWorkers pins the /v1/healthz worker gauge.
func TestHealthzReportsWorkers(t *testing.T) {
	c := newCluster(t, -1, nil)
	code, data := c.do("GET", "/v1/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var h struct {
		Workers *int `json:"workers_connected"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Workers == nil || *h.Workers != 0 {
		t.Fatalf("workers_connected = %v, want 0", h.Workers)
	}
	newRawWorker(t, c)
	_, data = c.do("GET", "/v1/healthz", "")
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Workers == nil || *h.Workers != 1 {
		t.Fatalf("workers_connected = %v after register, want 1", h.Workers)
	}
}

// TestWireCellRoundTrip pins that a cell survives the wire byte-for-byte:
// the reconstructed cell produces the same content address.
func TestWireCellRoundTrip(t *testing.T) {
	spec := batch.SweepSpec{}
	cells, err := spec.Cells() // the full default grid, all 140 cells
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		key, err := cell.Key()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(dist.WireCell{TaskID: "x", Key: key, Workload: cell.Workload,
			WorkloadDef: cell.WorkloadDef, Variant: cell.Variant, Config: cell.Config})
		if err != nil {
			t.Fatal(err)
		}
		var back dist.WireCell
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		key2, err := back.Cell().Key()
		if err != nil {
			t.Fatal(err)
		}
		if key2 != key {
			t.Fatalf("cell %s: key changed across the wire: %s -> %s", cell, key, key2)
		}
	}
}

// TestDispatcherFoldsExternalResolvesIntoRunnerCounters pins the
// mode-split accounting contract for clustered runs: cells the
// coordinator resolves without its runner ever seeing them — the
// dispatcher's own cache-hit fast path and piggyback waiters on a shared
// in-flight task — must still land in the runner's hit/shared counters
// (and therefore in ohm_cells_completed{mode} and /v1/healthz), so a
// cluster does not under-report completed cells versus a single-process
// run of the same sweep. The first waiter on a remotely executed cell is
// deliberately NOT counted here: the worker's runner counted it, and
// counting it again would double the cluster-wide total.
func TestDispatcherFoldsExternalResolvesIntoRunnerCounters(t *testing.T) {
	c := newCluster(t, -1, nil) // pure dispatch: every cell must travel

	// Two identical jobs queued before any worker exists: each of the six
	// distinct cells gets one task with two waiters. The first waiter is
	// the worker's work (not counted on the coordinator); the second is a
	// piggyback resolve (counted as a shared hit).
	id1 := c.submit(sixCells)
	id2 := c.submit(sixCells)
	// Start the worker only once all six tasks hold both waiters: a cell
	// that finished before job 2 attached would reach job 2 as a cache hit.
	deadline := time.Now().Add(30 * time.Second)
	for c.d.Waiters() < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("tasks hold %d waiters after 30s, want 12", c.d.Waiters())
		}
		runtime.Gosched()
	}
	startWorker(t, c.ts.URL, fakeRun, 2)
	if st := c.wait(id1, 30*time.Second); st.State != serve.StateDone {
		t.Fatalf("job 1: %s (%s)", st.State, st.Error)
	}
	if st := c.wait(id2, 30*time.Second); st.State != serve.StateDone {
		t.Fatalf("job 2: %s (%s)", st.State, st.Error)
	}
	st := c.runner.Stats()
	if st.Hits != 6 || st.Shared != 6 || st.Misses != 0 {
		t.Fatalf("after two piggybacked jobs: hits=%d shared=%d misses=%d, want 6/6/0",
			st.Hits, st.Shared, st.Misses)
	}

	// A warm resubmit answers entirely from the dispatcher's cache-hit
	// fast path; each of those must count as a (non-shared) hit too.
	id3 := c.submit(sixCells)
	if s := c.wait(id3, 10*time.Second); s.State != serve.StateDone {
		t.Fatalf("warm job: %s (%s)", s.State, s.Error)
	}
	st = c.runner.Stats()
	if st.Hits != 12 || st.Shared != 6 || st.Misses != 0 {
		t.Fatalf("after warm resubmit: hits=%d shared=%d misses=%d, want 12/6/0",
			st.Hits, st.Shared, st.Misses)
	}
}

// TestOptimizeCancelRevokesWorkerLease runs the optimizer's DES
// confirmation phase against a pure dispatcher, leases a confirmation
// cell to a hand-driven worker that never completes it, cancels the job,
// and requires the worker's next heartbeat to revoke the lease — cluster
// capacity must not stay pinned to a dead job.
func TestOptimizeCancelRevokesWorkerLease(t *testing.T) {
	c := newCluster(t, -1, nil) // pure dispatch: confirm cells must travel

	// Analytical evaluations short-circuit to the coordinator's runner,
	// so the job reaches its confirm phase with no worker connected; the
	// DES confirmation cells queue on the dispatcher.
	body := `{
	  "base": {"preset": "ohm-bw", "mode": "two-level", "workload": "pagerank",
	           "overrides": {"max_instructions": 2000}},
	  "axes": [{"path": "optical.waveguides", "min": 1, "max": 8}],
	  "objectives": [{"metric": "throughput"}],
	  "search": {"algorithm": "random", "seed": 5, "budget": 4, "confirm_top": 2}
	}`
	code, data := c.do("POST", "/v1/optimize", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, data)
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	w := newRawWorker(t, c)
	var cells []dist.WireCell
	deadline := time.Now().Add(30 * time.Second)
	for len(cells) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no confirmation cell ever queued for lease")
		}
		cells = w.lease(1)
		if len(cells) == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	taskID := cells[0].TaskID

	if code, data := c.do("DELETE", "/v1/jobs/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", code, data)
	}
	fin := c.wait(st.ID, 30*time.Second)
	if fin.State != serve.StateCancelled {
		t.Fatalf("cancelled optimizer job = %+v", fin)
	}

	// The worker still holds the lease from its point of view; the
	// heartbeat must hand the revocation back.
	deadline = time.Now().Add(10 * time.Second)
	for {
		hb := w.heartbeat([]string{taskID})
		if len(hb.Revoked) == 1 && hb.Revoked[0] == taskID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease on %s never revoked after cancel: %+v", taskID, hb)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failingCache is a result cache whose every write fails.
type failingCache struct{}

func (failingCache) Get(string) (stats.Report, bool) { return stats.Report{}, false }
func (failingCache) Put(string, stats.Report) error  { return errors.New("synthetic put failure") }

// TestRemotePutErrorsCounted pins that the coordinator counts a failed
// cache write of a cell a remote worker computed, exactly as the runner
// counts one for a cell it computed itself: six cold cells, six errors.
func TestRemotePutErrorsCounted(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) { d.Runner.Cache = failingCache{} })
	startWorker(t, c.ts.URL, fakeRun, 2)
	if st := c.wait(c.submit(sixCells), 30*time.Second); st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got := c.runner.Stats().PutErrors; got != 6 {
		t.Fatalf("put_errors = %d after six remote cells with a failing cache, want 6", got)
	}
}

// TestJoiningJobWallIsItsOwn pins that a job joining cells another job is
// already waiting on is credited only its own wait: summed over its cells,
// the wall time cannot exceed its cell count times its own lifetime, even
// though the cells were queued long before it existed.
func TestJoiningJobWallIsItsOwn(t *testing.T) {
	c := newCluster(t, -1, nil) // pure dispatch: the cells wait for a worker
	id1 := c.submit(sixCells)
	time.Sleep(400 * time.Millisecond)
	id2 := c.submit(sixCells)
	// Start the worker only once job 2 waits on all six tasks, so none of
	// its cells is answered from the cache instead.
	deadline := time.Now().Add(30 * time.Second)
	for c.d.Waiters() < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("tasks hold %d waiters after 30s, want 12", c.d.Waiters())
		}
		runtime.Gosched()
	}
	startWorker(t, c.ts.URL, fakeRun, 2)
	if st := c.wait(id1, 30*time.Second); st.State != serve.StateDone {
		t.Fatalf("job 1: %s (%s)", st.State, st.Error)
	}
	st := c.wait(id2, 30*time.Second)
	if st.State != serve.StateDone || st.Timing == nil || st.Finished == nil {
		t.Fatalf("job 2: %s (%s), timing %+v", st.State, st.Error, st.Timing)
	}
	life := st.Finished.Sub(st.Created)
	if limit := time.Duration(st.CellsTotal) * life; st.Timing.CellsWall > limit {
		t.Fatalf("joining job: cells_wall %v > %d cells × its lifetime %v", st.Timing.CellsWall, st.CellsTotal, life)
	}
}

// TestLocalExecutionLeasesNothing pins that cells the coordinator runs on
// its own runner are not lease grants: Leased, like
// ohm_dist_leases_granted_total, counts grants to remote workers only.
func TestLocalExecutionLeasesNothing(t *testing.T) {
	c := newCluster(t, 0, nil) // local consumers, and no worker ever joins
	if st := c.wait(c.submit(sixCells), 30*time.Second); st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got := c.d.Stats().Leased; got != 0 {
		t.Fatalf("leased = %d after a job run wholly on the coordinator, want 0", got)
	}
}
