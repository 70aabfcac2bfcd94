package dist_test

// Fault-injection coverage for the distributed path: every test breaks
// the cluster mid-sweep and asserts the job still finishes with results
// byte-identical to the single-process path (or terminates with the
// documented state). The content-addressed cache is what makes all of
// this safe — any node's result for a key is the result — so the tests
// lean on byte comparison, not just completion.

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/stats"
)

// TestWorkerKilledMidCellRequeues simulates kill -9: a worker takes a
// cell and vanishes without completing, heartbeating or deregistering.
// The lease expires, the cell requeues, a healthy worker finishes it,
// and the result is byte-identical to the single-process run.
func TestWorkerKilledMidCellRequeues(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.LeaseTTL = 300 * time.Millisecond
		d.StealAfter = 10 * time.Minute // force the expiry path, not a steal
	})

	id := c.submit(sixCells)

	// The doomed worker grabs one cell and is never heard from again.
	doomed := newRawWorker(t, c)
	deadline := time.Now().Add(5 * time.Second)
	for len(doomed.lease(1)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a cell")
		}
	}

	startWorker(t, c.ts.URL, fakeRun, 2)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got := c.d.Stats().Requeued; got < 1 {
		t.Fatalf("expected at least one requeue after the worker died, got %d", got)
	}
	// The requeue must have come from lease expiry (the worker never
	// deregistered), and the expiry counter is the observable that says so.
	if got := c.d.Stats().Expired; got < 1 {
		t.Fatalf("expected at least one expired lease after kill -9, got %d", got)
	}
	if !bytes.Equal(c.result(id), referenceBytes(t, sixCells)) {
		t.Fatal("post-failure result differs from single-process run")
	}
}

// TestCancelRevokesWorkerLeases pins the cancellation contract across the
// cluster: DELETE on a job revokes its cells' leases — the worker learns
// through heartbeat and completion responses — and the job reports
// cancelled with the machine-readable result body.
func TestCancelRevokesWorkerLeases(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.LeaseTTL = 10 * time.Minute // nothing may expire behind the test's back
		d.StealAfter = 10 * time.Minute
	})

	id := c.submit(sixCells)
	w := newRawWorker(t, c)
	var cells []dist.WireCell
	deadline := time.Now().Add(5 * time.Second)
	for len(cells) < 2 {
		cells = append(cells, w.lease(2)...)
		if time.Now().After(deadline) {
			t.Fatalf("leased only %d cells", len(cells))
		}
	}

	if code, data := c.do("DELETE", "/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}
	st := c.wait(id, 10*time.Second)
	if st.State != serve.StateCancelled {
		t.Fatalf("job after cancel: %s", st.State)
	}

	// The worker's next heartbeat learns both leases are gone...
	ids := []string{cells[0].TaskID, cells[1].TaskID}
	hb := w.heartbeat(ids)
	if len(hb.Revoked) != 2 {
		t.Fatalf("heartbeat revoked %v, want both of %v", hb.Revoked, ids)
	}
	// ...and a completion that raced the cancel is flagged revoked while
	// its (valid, content-addressed) report is still accepted for cache.
	rep, err := fakeRun(cells[0].Cell().Config, cells[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	resp := w.complete(dist.CompleteRequest{TaskID: cells[0].TaskID, Key: cells[0].Key, Report: &rep})
	if !resp.Revoked {
		t.Fatalf("complete after cancel: %+v, want revoked", resp)
	}

	// The cancelled job's result endpoint answers with the structured
	// 410 body rather than a generic error.
	code, data := c.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusGone {
		t.Fatalf("cancelled result: HTTP %d: %s", code, data)
	}
	if !strings.Contains(string(data), `"reason": "job_cancelled"`) {
		t.Fatalf("cancelled result body lacks machine-readable reason: %s", data)
	}
}

// TestCancelEmptiesQueue pins that cancelling a job takes its queued
// cells out of the queue, not only out of the task table: a worker that
// joins after the cancel is leased nothing.
func TestCancelEmptiesQueue(t *testing.T) {
	c := newCluster(t, -1, nil) // pure dispatch: the cells wait in the queue
	id := c.submit(sixCells)
	deadline := time.Now().Add(30 * time.Second)
	for c.d.Waiters() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("tasks hold %d waiters after 30s, want 6", c.d.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
	if code, data := c.do("DELETE", "/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}
	if st := c.wait(id, 10*time.Second); st.State != serve.StateCancelled {
		t.Fatalf("job after cancel: %s", st.State)
	}
	if cells := newRawWorker(t, c).lease(6); len(cells) != 0 {
		t.Fatalf("a worker joining after the cancel was leased %d of the cancelled job's cells", len(cells))
	}
}

// TestWorkerSIGTERMRequeuesInFlight stops a worker gracefully while it is
// mid-cell: the deregister requeues its lease immediately (no TTL wait)
// and a second worker completes the sweep byte-identically.
func TestWorkerSIGTERMRequeuesInFlight(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.LeaseTTL = 10 * time.Minute // requeue must come from deregister, not expiry
		d.StealAfter = 10 * time.Minute
	})

	release := make(chan struct{})
	var once bool
	blocking := func(cfg config.Config, workload string) (stats.Report, error) {
		if !once {
			once = true // capacity 1: only the first cell blocks
			<-release
		}
		return fakeRun(cfg, workload)
	}
	defer close(release)

	stop := startWorker(t, c.ts.URL, blocking, 1)
	id := c.submit(sixCells)

	// Wait until the worker holds a lease mid-simulation.
	deadline := time.Now().Add(5 * time.Second)
	for c.d.Stats().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop() // SIGTERM path: deregister → in-flight cell requeues now

	startWorker(t, c.ts.URL, fakeRun, 2)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got := c.d.Stats().Requeued; got < 1 {
		t.Fatalf("expected the deregister to requeue, got %d", got)
	}
	if !bytes.Equal(c.result(id), referenceBytes(t, sixCells)) {
		t.Fatal("post-SIGTERM result differs from single-process run")
	}
}

// TestVersionSkewFailsLoudly pins the cache-integrity guard: a worker
// answering with a different content address than dispatched fails the
// cell (and the job) with a version-skew error instead of silently
// storing a wrong-keyed report.
func TestVersionSkewFailsLoudly(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.LeaseTTL = 10 * time.Minute
		d.StealAfter = 10 * time.Minute
	})
	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":1000}}`
	id := c.submit(body)

	w := newRawWorker(t, c)
	var wc dist.WireCell
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cells := w.lease(1); len(cells) > 0 {
			wc = cells[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never leased the cell")
		}
	}
	rep, err := fakeRun(wc.Cell().Config, wc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	resp := w.complete(dist.CompleteRequest{TaskID: wc.TaskID, Key: strings.Repeat("ab", 32), Report: &rep})
	if resp.Accepted {
		t.Fatalf("mismatched key was accepted: %+v", resp)
	}
	st := c.wait(id, 10*time.Second)
	if st.State != serve.StateFailed || !strings.Contains(st.Error, "skew") {
		t.Fatalf("job = %s (%q), want failed with version-skew error", st.State, st.Error)
	}
}

// TestWorkerErrorRetriesThenFails pins the attempt budget: a cell whose
// execution errors on every worker fails the job after MaxAttempts with
// the worker's error, not a hang.
func TestWorkerErrorRetriesThenFails(t *testing.T) {
	c := newCluster(t, -1, func(d *dist.Dispatcher) {
		d.MaxAttempts = 2
		d.LeaseTTL = 10 * time.Minute
		d.StealAfter = 10 * time.Minute
	})
	failing := func(cfg config.Config, workload string) (stats.Report, error) {
		return stats.Report{}, errors.New("synthetic cell failure")
	}
	startWorker(t, c.ts.URL, failing, 1)

	body := `{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":1000}}`
	id := c.submit(body)
	st := c.wait(id, 30*time.Second)
	if st.State != serve.StateFailed || !strings.Contains(st.Error, "synthetic cell failure") {
		t.Fatalf("job = %s (%q), want failed with the worker error", st.State, st.Error)
	}
}
