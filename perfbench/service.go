package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/twin"
)

// The service workload is an in-process ohmserve — bounded disk cache and
// journal in a temp dir, cells on the local executor, no remote workers —
// behind its real HTTP handler on a loopback httptest server, with one
// cell worker, driven by a closed loop of one client. The client submits a
// job, polls it and fetches the result before it submits the next. With a
// second client, a job's latency depended on whether the two clients' cold
// sweeps happened to overlap, and jobs_per_s of one seed ranged over 26-43
// jobs/s from run to run.

const (
	// serviceBudget is the per-warp budget of the mix's DES and analytical
	// cells.
	serviceBudget = 500
	// cacheBudget bounds the disk cache, as ohmserve -cache-max-bytes does.
	cacheBudget = 256 << 20
	// jobTimeout fails a job that has not finished by then.
	jobTimeout = 60 * time.Second
	// serviceSetups caps the set-ups of a service run: each runs a cold
	// fig16, seconds long, so three already give a steady median.
	serviceSetups = 3
)

// jobKind is one entry of the service job mix.
type jobKind int

const (
	kindCold       jobKind = iota // small cold DES sweep
	kindResubmit                  // exact resubmit of an earlier job: all cache hits
	kindAnalytical                // analytical sweep: the twin layer
	kindOptimize                  // optimizer job: twin inner loop, DES confirmation
	kindFig16                     // fig16 quick, checked against the golden file
)

// mix is a synthetic session of ohmserve use: mostly new sweeps, a repeat,
// a twin sweep, an optimizer run and a figure. No recorded traffic exists
// to take the proportions from. The client runs the mix in blocks of
// twenty jobs, each block in an order the seed draws, so every seed
// measures the same proportions. Cold sweeps, the slowest kind, are 80% of
// the jobs, so job_p50_ms and job_p90_ms both fall well inside their
// latency band (near its 37th and 87th percentiles) instead of on an edge
// of it, where they would jump between runs. The latency metrics therefore
// track cold DES sweeps.
var mix = []jobKind{
	kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold,
	kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold,
	kindResubmit, kindAnalytical, kindOptimize, kindFig16,
}

// coldWorkloads are every cold sweep's workloads, one from the memory
// side and one from the compute side. Every cold sweep has the same grid,
// so cold latencies form one band; sweeps alternating between the two
// formed two bands, and job_p50_ms fell between them.
var coldWorkloads = []string{"betw", "FDTD"}

// server is one in-process ohmserve.
type server struct {
	runner  *batch.Runner
	cache   *timedCache
	exec    *timedExec
	manager *serve.Manager
	journal *serve.Journal
	http    *httptest.Server
}

// startServer brings up a server over a fresh directory the way
// cmd/ohmserve does, with timing decorators around the result cache and
// the job executor. They record only while traced is set.
func startServer(dir string, traced *atomic.Bool) (*server, error) {
	def := config.DefaultServe()
	dc, err := batch.NewBoundedDiskCache(filepath.Join(dir, "cache"), cacheBudget)
	if err != nil {
		return nil, err
	}
	s := &server{cache: &timedCache{inner: dc, on: traced}}
	s.runner = batch.NewRunner(workers, s.cache)
	s.exec = &timedExec{inner: batch.LocalExecutor{Runner: s.runner}, on: traced}
	s.manager = serve.NewManager(s.runner, def.JobWorkers, def.QueueDepth)
	s.manager.Retain = def.JobHistory
	s.manager.Executor = s.exec
	journal, replayed, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		s.manager.Shutdown(context.Background())
		return nil, err
	}
	s.journal = journal
	s.manager.Journal = journal
	s.manager.Recover(replayed)
	s.http = httptest.NewServer(serve.Instrument(nil, serve.NewHandler(s.manager)))
	return s, nil
}

// close stops the HTTP server, drains the manager and closes the journal.
func (s *server) close() {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	s.manager.Shutdown(ctx)
	_ = s.journal.Close() // the run is over; a close error changes no result
}

// timedCache times the runner's result-cache calls.
type timedCache struct {
	inner        batch.Cache
	on           *atomic.Bool
	gets, puts   atomic.Int64
	getNS, putNS atomic.Int64
}

func (c *timedCache) Get(key string) (stats.Report, bool) {
	if !c.on.Load() {
		return c.inner.Get(key)
	}
	start := time.Now()
	rep, ok := c.inner.Get(key)
	c.getNS.Add(int64(time.Since(start)))
	c.gets.Add(1)
	return rep, ok
}

func (c *timedCache) Put(key string, rep stats.Report) error {
	if !c.on.Load() {
		return c.inner.Put(key, rep)
	}
	start := time.Now()
	err := c.inner.Put(key, rep)
	c.putNS.Add(int64(time.Since(start)))
	c.puts.Add(1)
	return err
}

// timedExec times every cell batch the manager executes — sweeps, figure
// drivers and optimizer evaluations alike — and the cells' content keys.
type timedExec struct {
	inner batch.Executor
	on    *atomic.Bool

	mu      sync.Mutex
	wall    time.Duration
	cells   int
	keyTime time.Duration
}

func (e *timedExec) RunContext(ctx context.Context, cells []batch.Cell, progress batch.Progress) ([]stats.Report, error) {
	if !e.on.Load() {
		return e.inner.RunContext(ctx, cells, progress)
	}
	start := time.Now()
	for i := range cells {
		if _, err := cells[i].Key(); err != nil {
			return nil, err
		}
	}
	keyTime := time.Since(start)
	reps, err := e.inner.RunContext(ctx, cells, progress)
	e.mu.Lock()
	e.wall += time.Since(start)
	e.cells += len(cells)
	e.keyTime += keyTime
	e.mu.Unlock()
	return reps, err
}

// fig16Body requests Figure 16 at -quick.
const fig16Body = `{"experiment":"fig16","params":{"quick":true}}`

// client is the closed-loop user of the service.
type client struct {
	seed   uint64
	base   string
	http   *http.Client
	golden []byte
	inject bool
	small  bool

	n       int           // jobs issued so far
	history []sweepRecord // earlier jobs, for resubmits
}

// sweepRecord is an earlier job submission and its first result.
type sweepRecord struct {
	body, result []byte
}

// jobResult is one finished job as the client saw it.
type jobResult struct {
	kind      jobKind
	latency   time.Duration // submit to result read
	end       time.Duration // when the result was read, on the refClock's wall clock
	submit    time.Duration // POST round trip
	polls     int
	queueWait time.Duration // from the job's timing block
	instr     uint64        // simulated instructions (cold sweeps)
	evals     int           // twin evaluations (optimizer jobs)
	twinTime  time.Duration // local twin.Estimate time (analytical checks)
	twinCells int
	err       error
}

// draw is the client's i-th random draw, a pure function of the run's
// seed and i.
func (c *client) draw(i uint64) uint64 { return mix64(c.seed, i) }

// kind is the client's n-th job kind: block n/len(mix) is a permutation of
// mix drawn from the seed.
func (c *client) kind(n int) jobKind {
	block := uint64(n / len(mix))
	perm := append([]jobKind(nil), mix...)
	for i := len(perm) - 1; i > 0; i-- {
		j := c.draw(1<<31|block*uint64(len(mix))+uint64(i)) % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[n%len(mix)]
}

// budget is the per-warp budget of the client's DES and analytical cells.
func (c *client) budget() int {
	if c.small {
		return smallBudget
	}
	return serviceBudget
}

// next issues the client's next job, waits for it and checks its result.
func (c *client) next() jobResult {
	kind := c.kind(c.n)
	seq := uint64(c.n)
	c.n++
	seeds := batch.Axis{simSeed(c.draw(seq), 0)}
	var jr jobResult
	switch kind {
	case kindCold:
		spec := batch.SweepSpec{
			Platforms:       []config.Platform{config.OhmBW, config.Hetero},
			Modes:           config.AllModes(),
			Workloads:       coldWorkloads,
			MaxInstructions: c.budget(),
			Overrides:       batch.Overrides{"seed": seeds},
		}
		cfg := config.Default(config.OhmBW, config.Planar)
		cfg.MaxInstructions = c.budget()
		want := wantInstructions(&cfg, c.inject)
		jr = c.sweep(spec, func(rows []batch.Row, jr *jobResult) error {
			for _, r := range rows {
				label := fmt.Sprintf("%s/%s/%s", r.Platform, r.Mode, r.Workload)
				if err := checkReport(label, want, r.Report); err != nil {
					return err
				}
				jr.instr += r.Report.Instructions
			}
			return nil
		})
	case kindAnalytical:
		spec := batch.SweepSpec{
			Platforms:       desMem.platforms,
			Modes:           config.AllModes(),
			Execs:           []config.ExecMode{config.ExecAnalytical, config.ExecAnalytical},
			Workloads:       desMem.workloads,
			MaxInstructions: c.budget(),
			Overrides:       batch.Overrides{"seed": seeds},
		}
		jr = c.sweep(spec, func(rows []batch.Row, jr *jobResult) error { return checkTwin(spec, rows, jr) })
	case kindResubmit:
		rec := c.history[c.draw(seq)%uint64(len(c.history))]
		var data []byte
		data, jr = c.job("/v1/sweeps", rec.body)
		if jr.err == nil && !bytes.Equal(data, rec.result) {
			jr.err = fmt.Errorf("resubmitted sweep answered %d bytes differing from its first %d", len(data), len(rec.result))
		}
	case kindOptimize:
		jr = c.optimize(seeds[0], int64(simSeed(c.draw(seq), 1)))
	case kindFig16:
		jr = c.fig16()
	}
	jr.kind = kind
	return jr
}

// sweep submits a sweep, checks its rows and keeps it for resubmits.
func (c *client) sweep(spec batch.SweepSpec, check func([]batch.Row, *jobResult) error) jobResult {
	body, err := json.Marshal(serve.Request{Spec: &spec})
	if err != nil {
		return jobResult{err: err}
	}
	data, jr := c.job("/v1/sweeps", body)
	if jr.err != nil {
		return jr
	}
	var rows []batch.Row
	if err := json.Unmarshal(data, &rows); err != nil {
		jr.err = fmt.Errorf("sweep result: %w", err)
		return jr
	}
	if jr.err = check(rows, &jr); jr.err == nil {
		c.history = append(c.history, sweepRecord{body: body, result: data})
	}
	return jr
}

// checkTwin recomputes every analytical row with twin.Estimate from the
// same expanded spec; the served report must match it byte for byte.
func checkTwin(spec batch.SweepSpec, rows []batch.Row, jr *jobResult) error {
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	if len(cells) != len(rows) {
		return fmt.Errorf("analytical sweep: %d rows for %d cells", len(rows), len(cells))
	}
	for i := range cells {
		c := &cells[i]
		w, _ := config.WorkloadByName(c.Workload)
		start := time.Now()
		est := twin.Estimate(&c.Config, w)
		jr.twinTime += time.Since(start)
		jr.twinCells++
		want, err := roundTrip(est)
		if err != nil {
			return err
		}
		got, err := json.Marshal(rows[i].Report)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("analytical %s: served report differs from twin.Estimate", c)
		}
	}
	return nil
}

// roundTrip is a report's bytes after the result cache's JSON round trip.
func roundTrip(rep stats.Report) ([]byte, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var back stats.Report
	if err := json.Unmarshal(data, &back); err != nil {
		return nil, err
	}
	return json.Marshal(back)
}

// optimize submits a small optimizer job: eight twin evaluations around a
// baseline, and a DES confirmation of the best frontier point. The base
// scenario's trace seed is fresh, so the confirmation simulates cold.
func (c *client) optimize(traceSeed interface{}, searchSeed int64) jobResult {
	lo, hi := 1.0, 8.0
	confirm := 1
	spec := search.Spec{
		Base: config.Spec{
			Preset:    "ohm-bw",
			Overrides: map[string]interface{}{"max_instructions": c.budget(), "seed": traceSeed},
			Workload:  &config.WorkloadSpec{Name: "sssp"},
		},
		Axes: []search.Axis{
			{Path: "optical.waveguides", Min: &lo, Max: &hi},
			{Path: "gpu.mshr_entries", Values: []interface{}{8.0, 16.0, 32.0}},
		},
		Objectives: []search.Objective{{Metric: "throughput"}, {Metric: "energy_pj"}},
		Search:     search.Strategy{Algorithm: "random", Seed: searchSeed, Budget: 8, ConfirmTop: &confirm},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return jobResult{err: err}
	}
	data, jr := c.job("/v1/optimize", body)
	if jr.err != nil {
		return jr
	}
	var res search.Result
	switch err := json.Unmarshal(data, &res); {
	case err != nil:
		jr.err = fmt.Errorf("optimize result: %w", err)
	case len(res.Decisions) != 1+spec.Search.Budget:
		jr.err = fmt.Errorf("optimize: %d decisions, want %d", len(res.Decisions), 1+spec.Search.Budget)
	case res.Evaluated <= 0 || res.Evaluated > spec.PlannedEvaluations():
		jr.err = fmt.Errorf("optimize: %d evaluations, planned %d", res.Evaluated, spec.PlannedEvaluations())
	case len(res.Frontier) == 0 || res.Confirmed < 1:
		jr.err = fmt.Errorf("optimize: frontier of %d with %d confirmed", len(res.Frontier), res.Confirmed)
	}
	jr.evals = res.Evaluated
	return jr
}

// fig16 runs Figure 16 at -quick; the result must be the golden bytes.
func (c *client) fig16() jobResult {
	data, jr := c.job("/v1/sweeps", []byte(fig16Body))
	want := c.golden
	if c.inject {
		want = append(append([]byte(nil), want...), '\n')
	}
	if jr.err == nil && !bytes.Equal(data, want) {
		jr.err = fmt.Errorf("fig16 quick result (%d bytes) differs from testdata/golden/fig16.json (%d bytes)", len(data), len(want))
	}
	return jr
}

// job submits one job, polls it to a terminal state and reads its result.
func (c *client) job(path string, body []byte) ([]byte, jobResult) {
	var jr jobResult
	start := time.Now()
	st, err := c.status(http.MethodPost, c.base+path, body, http.StatusAccepted)
	jr.submit = time.Since(start)
	for err == nil && !st.State.Terminal() {
		age := time.Since(start)
		if age > jobTimeout {
			err = fmt.Errorf("job %s not done after %v", st.ID, age)
			break
		}
		time.Sleep(pollDelay(age))
		st, err = c.status(http.MethodGet, c.base+"/v1/jobs/"+st.ID, nil, http.StatusOK)
		jr.polls++
	}
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var data []byte
	if err == nil {
		data, err = c.do(http.MethodGet, c.base+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	}
	jr.latency = time.Since(start)
	if st.Timing != nil {
		jr.queueWait = st.Timing.QueueWait
	}
	jr.err = err
	return data, jr
}

// pollDelay spaces status polls by a sixteenth of the job's age: a poll
// quantizes a job's latency by at most ~6%, and slow jobs cost few polls.
func pollDelay(age time.Duration) time.Duration {
	return min(max(age/16, 200*time.Microsecond), 10*time.Millisecond)
}

// status performs a request answered by a job status.
func (c *client) status(method, url string, body []byte, want int) (serve.Status, error) {
	var st serve.Status
	data, err := c.do(method, url, body, want)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// do performs one request and requires the given status code.
func (c *client) do(method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// drive runs the client's closed loop for d, with a tick of clk between
// jobs, and returns the jobs that finished.
func drive(c *client, clk *refClock, d time.Duration, t *tally) []jobResult {
	var out []jobResult
	start := time.Now()
	for time.Since(start) < d {
		jr := c.next()
		jr.end = clk.now()
		t.record(jr.err)
		out = append(out, jr)
		clk.maybeTick()
	}
	return out
}

// latencySum is the jobs' summed latency: the client's busy time.
func latencySum(jobs []jobResult) time.Duration {
	var sum time.Duration
	for _, jr := range jobs {
		sum += jr.latency
	}
	return sum
}

// runService runs the service workload.
func runService(o options) (*result, error) {
	res := newResult()
	golden, err := os.ReadFile(filepath.Join(o.root, "testdata", "golden", "fig16.json"))
	if err != nil {
		return nil, fmt.Errorf("golden corpus: %w", err)
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.tmp, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: a server on a fresh directory, warmed with a cold fig16
	// quick job checked against the golden file; repeated, keeping the
	// last server.
	traced := &atomic.Bool{}
	clk := newRefClock()
	var srv *server
	var setups []jobSample
	for i := 0; i < max(1, min(o.setups, serviceSetups)); i++ {
		if srv != nil {
			srv.close()
		}
		clk.tick()
		start := time.Now()
		srv, err = startServer(filepath.Join(base, fmt.Sprint(i)), traced)
		if err != nil {
			return nil, err
		}
		warm := &client{base: srv.http.URL, http: srv.http.Client(), golden: golden, inject: o.inject}
		res.tally.record(warm.fig16().err)
		setups = append(setups, jobSample{wall: time.Since(start), end: clk.now()})
	}
	defer srv.close()

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	// Set-up ran fig16, so the client's first resubmit has a target.
	c := &client{
		seed: o.seed, base: srv.http.URL,
		http:   &http.Client{Transport: transport, Timeout: jobTimeout},
		golden: golden, inject: o.inject, small: o.small,
		history: []sweepRecord{{body: []byte(fig16Body), result: golden}},
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		tracedService(srv, c, clk, d, traced, res)
		return res, nil
	}
	jobs := drive(c, clk, d, &res.tally)
	samples := make([]jobSample, len(jobs))
	for i, jr := range jobs {
		samples[i] = jobSample{wall: jr.latency, end: jr.end, instr: jr.instr, failed: jr.err != nil}
	}
	logKinds(jobs)
	res.setJobMetrics(clk, samples)
	res.set("setup_s", clk.medianSeconds(setups))
	return res, nil
}

var kindNames = [...]string{kindCold: "cold", kindResubmit: "resubmit", kindAnalytical: "analytical", kindOptimize: "optimize", kindFig16: "fig16"}

// logKinds prints each job kind's count and latency quartiles to stderr,
// to show where job_p50_ms and job_p90_ms fall in the mix.
func logKinds(jobs []jobResult) {
	byKind := make([][]float64, len(kindNames))
	for _, jr := range jobs {
		byKind[jr.kind] = append(byKind[jr.kind], ms(jr.latency))
	}
	var b strings.Builder
	for k, lat := range byKind {
		fmt.Fprintf(&b, " %s n=%d p25=%.1fms p50=%.1fms p75=%.1fms;", kindNames[k], len(lat),
			quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75))
	}
	fmt.Fprintf(os.Stderr, "perfbench: service jobs by kind:%s\n", b.String())
}

// tracedService is the --trace 1 run: half the time with the decorators
// idle (the base for trace_overhead_frac), half with them recording.
func tracedService(srv *server, c *client, clk *refClock, d time.Duration, traced *atomic.Bool, res *result) {
	aJobs := drive(c, clk, d/2, &res.tally)
	before := srv.runner.Stats()
	traced.Store(true)
	bJobs := drive(c, clk, d/2, &res.tally)
	traced.Store(false)
	after := srv.runner.Stats()

	var submit, queue, searchMS []float64
	var polls, evals, optimizes, twinCells int
	var twinTime time.Duration
	for _, jr := range bJobs {
		submit = append(submit, ms(jr.submit))
		queue = append(queue, ms(jr.queueWait))
		polls += jr.polls
		twinTime += jr.twinTime
		twinCells += jr.twinCells
		if jr.kind == kindOptimize {
			optimizes++
			evals += jr.evals
			searchMS = append(searchMS, ms(jr.latency))
		}
	}
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	n := float64(len(bJobs))
	e := srv.exec
	e.mu.Lock()
	defer e.mu.Unlock()
	res.set("batch.cells_per_s", per(float64(e.cells), latencySum(bJobs).Seconds()))
	res.set("batch.key_us", per(us(e.keyTime), float64(e.cells)))
	res.set("batch.cache_get_us", per(float64(srv.cache.getNS.Load())/1e3, float64(srv.cache.gets.Load())))
	res.set("batch.cache_put_us", per(float64(srv.cache.putNS.Load())/1e3, float64(srv.cache.puts.Load())))
	res.set("batch.cache_hit_ratio", per(hits, hits+misses))
	res.set("batch.exec_ms_per_job", per(ms(e.wall), n))
	res.set("twin.us_per_cell", per(us(twinTime), float64(twinCells)))
	res.set("search.job_ms", quantile(searchMS, 0.5))
	res.set("search.evaluations", per(float64(evals), float64(optimizes)))
	res.set("serve.submit_ms_p50", quantile(submit, 0.5))
	res.set("serve.queue_wait_ms_p50", quantile(queue, 0.5))
	res.set("serve.polls_per_job", per(float64(polls), n))
	res.set("serve.journal_kb", float64(srv.journal.Size())/1024)
	res.set("trace_overhead_frac", per(per(latencySum(bJobs).Seconds(), n), per(latencySum(aJobs).Seconds(), float64(len(aJobs))))-1)
	res.set("peak_rss_mb", peakRSSMB())
}
