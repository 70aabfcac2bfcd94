package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// waitStatus polls a job until cond holds (or the deadline fails the test).
func waitStatus(t *testing.T, job *Job, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := job.Status()
		if cond(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s: %+v", job.ID(), what, job.Status())
	return Status{}
}

// TestRecoverRequeuesInFlightJob is the crash-recovery mechanics test: a
// coordinator with a journal and a disk cache is wedged mid-sweep
// (emulating kill -9 — the manager is simply abandoned, its journal never
// closed), a second manager reopens the same journal and cache, and the
// in-flight job must resume under its original id, serve its completed
// cells from the cache, and simulate only the cells that were in flight.
func TestRecoverRequeuesInFlightJob(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")

	// Calls 1 (jobA) and 2-3 (jobB cells 1-2) complete instantly; call 4
	// (jobB cell 3) wedges, pinning the "crash" mid-sweep.
	var calls atomic.Int64
	gate := make(chan struct{})
	wedgedRun := func(cfg config.Config, w string) (stats.Report, error) {
		if calls.Add(1) > 3 {
			<-gate
		}
		return fakeRun(cfg, w)
	}

	dc1, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	j1, replayed, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replayed))
	}
	runner1 := &batch.Runner{Workers: 1, Cache: dc1, RunFn: wedgedRun}
	m1 := NewManager(runner1, 1, 8)
	m1.Journal = j1
	t.Cleanup(func() {
		close(gate) // un-wedge the abandoned manager's goroutines
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m1.Shutdown(ctx)
	})

	jobA, err := m1.SubmitAs("alice", Request{Spec: specOf(t, `{"platforms":["oracle"],"modes":["planar"],"workloads":["lud"]}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jobA, "done", func(st Status) bool { return st.State == StateDone })

	jobB, err := m1.SubmitAs("bob", Request{Spec: specOf(t, `{"platforms":["ohm-base"],"modes":["planar"],"workloads":["lud","sssp","pagerank","bfstopo"]}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Two cells complete (and hit the disk cache); the third is wedged.
	waitStatus(t, jobB, "2 cells done", func(st Status) bool { return st.CellsDone == 2 })

	// "kill -9": abandon m1 without shutdown. Its journal stays open but
	// the wedge guarantees it writes nothing more.
	j2, replayed, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(replayed))
	}
	if !replayed[0].Terminal() || replayed[0].State != StateDone || replayed[0].Tenant != "alice" {
		t.Fatalf("jobA replayed as %+v", replayed[0])
	}
	if replayed[1].Terminal() || replayed[1].Tenant != "bob" {
		t.Fatalf("jobB replayed as %+v", replayed[1])
	}

	// Restart: fresh runner over the same cache directory, no wedge, and
	// a fresh-sim counter to prove near-zero recomputation.
	var fresh atomic.Int64
	dc2, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	runner2 := &batch.Runner{Workers: 2, Cache: dc2, RunFn: func(cfg config.Config, w string) (stats.Report, error) {
		fresh.Add(1)
		return fakeRun(cfg, w)
	}}
	m2 := NewManager(runner2, 1, 8)
	m2.Journal = j2
	m2.Admission = NewAdmission(AdmissionConfig{MaxJobs: 8})
	m2.Recover(replayed)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
		j2.Close()
	})

	// jobA is terminal history: status intact, marked replayed, no payload.
	gotA, ok := m2.Get(jobA.ID())
	if !ok {
		t.Fatalf("terminal job %s lost in replay", jobA.ID())
	}
	stA := gotA.Status()
	if stA.State != StateDone || !stA.Replayed || stA.Tenant != "alice" {
		t.Fatalf("jobA after replay = %+v", stA)
	}
	if gotA.hasResult() {
		t.Fatal("replayed terminal job claims a result payload")
	}

	// jobB re-queued under its original id and completes: the two cells
	// done before the crash come from the cache, only the two cells that
	// were in flight (or unstarted) simulate.
	gotB, ok := m2.Get(jobB.ID())
	if !ok {
		t.Fatalf("in-flight job %s lost in replay", jobB.ID())
	}
	stB := waitStatus(t, gotB, "done after replay", func(st Status) bool { return st.State.Terminal() })
	if stB.State != StateDone {
		t.Fatalf("replayed job = %+v", stB)
	}
	if !stB.Replayed || stB.Tenant != "bob" {
		t.Fatalf("replayed job lost identity: %+v", stB)
	}
	if stB.CacheHits != 2 || stB.Simulated != 2 {
		t.Fatalf("replayed job hits=%d sim=%d, want 2 and 2 (crash-completed cells must come from cache)",
			stB.CacheHits, stB.Simulated)
	}
	if got := fresh.Load(); got != 2 {
		t.Fatalf("restart simulated %d cells fresh, want 2", got)
	}

	// The id sequence resumes past the replayed ids.
	jobC, err := m2.Submit(Request{Spec: specOf(t, `{"platforms":["oracle"],"modes":["planar"],"workloads":["sssp"]}`)})
	if err != nil {
		t.Fatal(err)
	}
	if jobC.ID() <= jobB.ID() {
		t.Fatalf("post-replay id %s did not advance past %s", jobC.ID(), jobB.ID())
	}

	// The replayed-done job's result endpoint answers 410 with the
	// machine-readable reason (payloads don't survive restarts; a warm
	// resubmit recomputes byte-identically from the cache).
	ts := httptest.NewServer(NewHandler(m2))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobA.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("replayed result = %d, want 410", resp.StatusCode)
	}
	var ru resultUnavailable
	if err := json.NewDecoder(resp.Body).Decode(&ru); err != nil {
		t.Fatal(err)
	}
	if ru.Reason != ReasonResultLost || ru.State != StateDone {
		t.Fatalf("410 body = %+v", ru)
	}
}

// specOf parses a SweepSpec literal.
func specOf(t *testing.T, s string) *batch.SweepSpec {
	t.Helper()
	var spec batch.SweepSpec
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestRecoverGoldenByteIdentity is the acceptance test from the issue: a
// real fig16 -quick experiment is killed mid-sweep (coordinator wedged
// with three cells done), restarted on the same journal + cache
// directory, and the replayed job must complete with the exact bytes the
// golden corpus pins — serving the crash-completed cells from the cache
// and simulating only the rest.
func TestRecoverGoldenByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation (seconds) in -short mode")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")

	// First three cells simulate for real; the fourth wedges mid-flight.
	var calls atomic.Int64
	gate := make(chan struct{})
	dc1, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	runner1 := batch.NewRunner(4, dc1)
	runner1.RunFn = func(cfg config.Config, w string) (stats.Report, error) {
		if calls.Add(1) > 3 {
			<-gate
		}
		sys, err := core.NewSystemIn(nil, cfg)
		if err != nil {
			return stats.Report{}, err
		}
		return sys.RunWorkload(w)
	}
	j1, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(runner1, 1, 4)
	m1.Journal = j1
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m1.Shutdown(ctx)
	})

	job, err := m1.Submit(Request{Experiment: "fig16", Params: experiments.Params{Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, job, "3 cells done", func(st Status) bool { return st.CellsDone >= 3 })

	// "kill -9", then restart on the same data dir with a clean runner
	// (default simulation path — byte-identity must not depend on the
	// wedge wrapper).
	j2, replayed, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	dc2, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	runner2 := batch.NewRunner(4, dc2)
	m2 := NewManager(runner2, 1, 4)
	m2.Journal = j2
	m2.Recover(replayed)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
		j2.Close()
	})

	got, ok := m2.Get(job.ID())
	if !ok {
		t.Fatalf("job %s not replayed", job.ID())
	}
	st := waitStatus(t, got, "done after replay", func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("replayed job = %+v", st)
	}
	// The cells completed before the crash must not re-simulate:
	// simulated ≈ only what was in flight or unstarted at the kill.
	if st.CacheHits < 3 {
		t.Fatalf("cache hits = %d, want >= 3 (crash-completed cells recomputed)", st.CacheHits)
	}
	if st.Simulated > st.CellsTotal-3 {
		t.Fatalf("simulated %d of %d cells after replay, want <= %d",
			st.Simulated, st.CellsTotal, st.CellsTotal-3)
	}

	ts := httptest.NewServer(NewHandler(m2))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	gotBytes, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "fig16.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqual(gotBytes, want) {
		t.Fatalf("replayed result diverges from golden corpus (%d vs %d bytes)", len(gotBytes), len(want))
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecoverReplaysCombinedModeJob is the regression for the
// analytical-mode replay bug class: a combined-mode sweep (DES rows plus
// "+analytical" rows) wedged mid-sweep must come back from the journal
// with its execution modes intact. Cell.Exec and SweepSpec.Execs are
// json:"-" — the modes survive only because the spec folds them into the
// wire "modes" tokens ("planar+analytical") — so a serialization slip
// here would silently replay the analytical half of the grid through the
// event simulator and produce wrong (and 1000x slower) rows under the
// analytical label.
func TestRecoverReplaysCombinedModeJob(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")

	// Cell order is mode-major: [DES lud, DES sssp, ANA lud, ANA sssp]
	// on one worker. The first DES cell completes (and lands in the disk
	// cache); the second wedges; the analytical cells never start before
	// the "crash".
	var calls atomic.Int64
	gate := make(chan struct{})
	wedgedRun := func(cfg config.Config, w string) (stats.Report, error) {
		if calls.Add(1) > 1 {
			<-gate
		}
		return fakeRun(cfg, w)
	}
	dc1, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	j1, replayed, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replayed))
	}
	runner1 := &batch.Runner{Workers: 1, Cache: dc1, RunFn: wedgedRun}
	m1 := NewManager(runner1, 1, 8)
	m1.Journal = j1
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m1.Shutdown(ctx)
	})

	spec := `{"platforms":["ohm-base"],"modes":["planar","planar+analytical"],"workloads":["lud","sssp"]}`
	job, err := m1.SubmitAs("carol", Request{Spec: specOf(t, spec)})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, job, "1 cell done", func(st Status) bool { return st.CellsDone == 1 })

	// "kill -9": abandon m1, reopen the journal cold.
	j2, replayed, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(replayed))
	}

	var freshDES atomic.Int64
	dc2, err := batch.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	runner2 := &batch.Runner{Workers: 2, Cache: dc2, RunFn: func(cfg config.Config, w string) (stats.Report, error) {
		freshDES.Add(1)
		return fakeRun(cfg, w)
	}}
	m2 := NewManager(runner2, 1, 8)
	m2.Journal = j2
	m2.Recover(replayed)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
		j2.Close()
	})

	got, ok := m2.Get(job.ID())
	if !ok {
		t.Fatalf("in-flight combined-mode job %s lost in replay", job.ID())
	}
	// The re-prepared request must carry the original execution modes.
	// Execs is json:"-", so this survives only through the wire "modes"
	// tokens — if the journal round-trip dropped them, both entries
	// would be DES.
	if rs := got.req.Spec; rs == nil || len(rs.Execs) != 2 || rs.Execs[1] != config.ExecAnalytical {
		t.Fatalf("replayed spec execs = %+v, want [des analytical] (exec modes lost in the journal round-trip)", got.req.Spec)
	}

	st := waitStatus(t, got, "done after replay", func(st Status) bool { return st.State.Terminal() })
	// The executed grid carried the modes through to the cells: two DES,
	// two analytical (terminal jobs keep their cells for the result
	// encoder, so this is safe to read now).
	var ana int
	for _, c := range got.cells {
		if c.Exec == config.ExecAnalytical {
			ana++
		}
	}
	if ana != 2 {
		t.Fatalf("replayed grid ran %d analytical cells, want 2", ana)
	}
	if st.State != StateDone {
		t.Fatalf("replayed combined-mode job = %+v", st)
	}
	// The crash-completed DES cell comes from the cache; the other DES
	// cell simulates; both analytical cells estimate through the twin —
	// never through RunFn.
	if st.CacheHits != 1 || st.Simulated != 3 {
		t.Fatalf("replayed job hits=%d sim=%d, want 1 and 3", st.CacheHits, st.Simulated)
	}
	if got := freshDES.Load(); got != 1 {
		t.Fatalf("restart ran %d cells through RunFn, want 1 (analytical cells must use the twin)", got)
	}
	if st.Timing == nil || st.Timing.AnalyticalCells != 2 {
		t.Fatalf("replayed job timing = %+v, want analytical_cells=2", st.Timing)
	}
	if rs := runner2.Stats(); rs.Analytical != 2 {
		t.Fatalf("runner resolved %d analytical cells after replay, want 2", rs.Analytical)
	}
}
