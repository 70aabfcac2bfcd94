package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// defaultLocalSlots sizes execution pools when nothing was configured.
func defaultLocalSlots() int { return runtime.GOMAXPROCS(0) }

// jittered spreads a backoff delay uniformly over [d/2, 3d/2): a fleet
// of workers whose coordinator restarted would otherwise all retry on
// the same doubling schedule and thundering-herd the new process.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Worker is the pull side of the protocol: it registers with a
// coordinator, long-polls for cell leases, runs each cell on its own
// batch.Runner — whose cache makes a worker that has seen a cell before
// answer without simulating — and ships the report back. `ohmserve
// -worker -join <url>` wraps one of these around a runner.
//
// Cancelling the Run context is the SIGTERM path: the worker deregisters
// (which requeues its in-flight cells on the coordinator immediately) and
// exits without waiting for running simulations.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Runner executes leased cells; its cache persists results locally.
	Runner *batch.Runner
	// Capacity is how many cells run concurrently; <=0 means GOMAXPROCS.
	Capacity int
	// Name labels the worker in coordinator logs.
	Name string
	// Client issues the HTTP calls; nil means a default client. Leave
	// Timeout zero — the lease call long-polls up to the coordinator's
	// poll bound.
	Client *http.Client
	// Logger, when non-nil, receives structured pull-loop events
	// (registration, leases, completions, failures), each tagged with the
	// worker and task identity.
	Logger *slog.Logger

	mu       sync.Mutex
	id       string
	hb       time.Duration
	inflight map[string]bool // task id -> still wanted (false = revoked)
}

// Run drives the worker until ctx is cancelled. It retries registration
// and transient coordinator failures with backoff, so workers can start
// before the coordinator and survive its restarts.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		w.Client = &http.Client{}
	}
	if w.inflight == nil {
		w.inflight = make(map[string]bool)
	}
	capacity := w.Capacity
	if capacity <= 0 {
		capacity = defaultLocalSlots()
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	defer w.deregister()

	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(hbStop)

	sem := make(chan struct{}, capacity)
	backoff := 100 * time.Millisecond
	for {
		// Block for one free slot, then opportunistically claim the rest
		// so one lease round-trip can fill every idle slot.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		free := 1
	claim:
		for free < capacity {
			select {
			case sem <- struct{}{}:
				free++
			default:
				break claim
			}
		}
		unclaim := func(n int) {
			for i := 0; i < n; i++ {
				<-sem
			}
		}
		cells, err := w.lease(ctx, free)
		if ctx.Err() != nil {
			unclaim(free)
			return nil
		}
		if err != nil {
			unclaim(free)
			if isNotFound(err) {
				// The coordinator forgot us (restart, or we were silent
				// past the worker timeout): start over.
				w.log().Warn("dist: worker re-registering", "err", err)
				if rerr := w.register(ctx); rerr != nil {
					return rerr
				}
				continue
			}
			w.log().Warn("dist: lease failed, backing off", "backoff", backoff.String(), "err", err)
			select {
			case <-time.After(jittered(backoff)):
			case <-ctx.Done():
				return nil
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		unclaim(free - len(cells)) // slots the coordinator had nothing for
		if len(cells) > 0 {
			w.log().Debug("dist: leased cells", "count", len(cells))
		}
		for _, wc := range cells {
			wc := wc
			w.track(wc.TaskID)
			go func() {
				defer func() {
					w.untrack(wc.TaskID)
					<-sem
				}()
				w.runCell(ctx, wc)
			}()
		}
	}
}

// runCell executes one leased cell and completes it. The cache key is
// recomputed and checked against the coordinator's before running: a
// mismatch means the two binaries resolve the cell differently (version
// skew), and running would poison whichever cache is wrong.
func (w *Worker) runCell(ctx context.Context, wc WireCell) {
	req := CompleteRequest{TaskID: wc.TaskID, Key: wc.Key}
	cell := wc.Cell()
	key, err := cell.Key()
	switch {
	case err != nil:
		req.Error = fmt.Sprintf("key cell: %v", err)
	case key != wc.Key:
		req.Error = fmt.Sprintf("cell keyed %.12s here but %.12s at the coordinator (binary version skew?)", key, wc.Key)
	default:
		start := time.Now()
		rep, o, rerr := w.Runner.RunCell(ctx, cell)
		if rerr != nil {
			req.Error = rerr.Error()
			w.log().Warn("dist: cell failed",
				obs.KeyTaskID, wc.TaskID, obs.KeyCell, cell.String(), "err", rerr)
		} else {
			req.Report = &rep
			req.CacheHit = o.Hit
			if !o.Phases.IsZero() {
				req.Phases = &o.Phases
			}
			w.log().Info("dist: cell complete",
				obs.KeyTaskID, wc.TaskID, obs.KeyCell, cell.String(),
				"cache_hit", o.Hit, "duration", time.Since(start).String())
		}
	}
	if ctx.Err() != nil || w.revoked(wc.TaskID) {
		return // lease gone or shutting down: the coordinator requeues
	}
	// Bound the round trip: a black-holed coordinator must cost this
	// slot seconds, not pin it until TCP gives up (lease expiry already
	// covers the lost result).
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var resp CompleteResponse
	if err := w.post(cctx, "/v1/workers/"+w.wid()+"/complete", req, &resp); err != nil {
		w.log().Warn("dist: complete failed (coordinator will requeue on expiry)",
			obs.KeyTaskID, wc.TaskID, "err", err)
	}
}

// wid returns the current registered worker id.
func (w *Worker) wid() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// heartbeatLoop extends the leases on in-flight cells and learns which
// were revoked (cancelled jobs, stolen-and-finished cells).
func (w *Worker) heartbeatLoop(stop <-chan struct{}) {
	w.mu.Lock()
	interval := w.hb
	w.mu.Unlock()
	if interval <= 0 {
		interval = DefaultLeaseTTL / 3
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-stop:
			return
		}
		ids := w.inflightIDs()
		if len(ids) == 0 {
			continue
		}
		// Bound each beat by its own interval: a black-holed connection
		// must cost one beat, not stall the loop forever while every
		// lease quietly expires.
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		var resp HeartbeatResponse
		err := w.post(ctx, "/v1/workers/"+w.wid()+"/heartbeat", HeartbeatRequest{TaskIDs: ids}, &resp)
		cancel()
		if err != nil {
			w.log().Warn("dist: heartbeat failed", "err", err)
			continue
		}
		for _, id := range resp.Revoked {
			w.markRevoked(id)
		}
	}
}

// register joins the coordinator, retrying with backoff until ctx dies.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		err := w.post(ctx, "/v1/workers/register", RegisterRequest{Name: w.Name, Capacity: w.Capacity}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.hb = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			w.mu.Unlock()
			w.log().Info("dist: registered",
				obs.KeyWorker, w.Name, "heartbeat", (time.Duration(resp.HeartbeatMillis) * time.Millisecond).String())
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log().Warn("dist: register failed, retrying", "backoff", backoff.String(), "err", err)
		select {
		case <-time.After(jittered(backoff)):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// deregister is the graceful goodbye; errors are moot (lease expiry
// covers an unreachable coordinator).
func (w *Worker) deregister() {
	id := w.wid()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.post(ctx, "/v1/workers/"+id+"/deregister", struct{}{}, &map[string]bool{})
}

// lease asks for up to max cells (long poll).
func (w *Worker) lease(ctx context.Context, max int) ([]WireCell, error) {
	var resp LeaseResponse
	if err := w.post(ctx, "/v1/workers/"+w.wid()+"/lease", LeaseRequest{Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Cells, nil
}

// notFoundError marks a 404 so the caller can distinguish "re-register"
// from transient failures.
type notFoundError struct{ msg string }

func (e notFoundError) Error() string { return e.msg }

func isNotFound(err error) bool {
	_, ok := err.(notFoundError)
	return ok
}

// post issues one JSON round trip against the coordinator.
func (w *Worker) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return pathError("encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return pathError("request %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return pathError("%s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
	if err != nil {
		return pathError("%s: read: %w", path, err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return notFoundError{msg: fmt.Sprintf("dist: %s: 404: %s", path, bytes.TrimSpace(data))}
	}
	if resp.StatusCode != http.StatusOK {
		return pathError("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return pathError("%s: decode: %w", path, err)
	}
	return nil
}

func (w *Worker) track(id string) {
	w.mu.Lock()
	w.inflight[id] = true
	w.mu.Unlock()
}

func (w *Worker) untrack(id string) {
	w.mu.Lock()
	delete(w.inflight, id)
	w.mu.Unlock()
}

func (w *Worker) markRevoked(id string) {
	w.mu.Lock()
	if _, ok := w.inflight[id]; ok {
		w.inflight[id] = false
	}
	w.mu.Unlock()
}

func (w *Worker) revoked(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	wanted, ok := w.inflight[id]
	return ok && !wanted
}

func (w *Worker) inflightIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.inflight))
	for id, wanted := range w.inflight {
		if wanted {
			ids = append(ids, id)
		}
	}
	return ids
}

// log returns the worker's logger (or the no-op logger) tagged with the
// current worker id.
func (w *Worker) log() *slog.Logger {
	return obs.Or(w.Logger).With(obs.KeyWorkerID, w.wid())
}
