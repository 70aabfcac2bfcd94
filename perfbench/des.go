package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// desGrid is one DES workload: the grid one job sweeps and the per-warp
// instruction budget of its cells. A job is one cold sweep through
// batch.Runner with one worker and no result cache; the run's seed
// becomes the sweep's "seed" override axis, so the program only ever
// receives generated specs.
type desGrid struct {
	platforms []config.Platform
	modes     []config.MemMode
	workloads []string
	budget    int
	// seedsPerJob is the length of each job's seed axis.
	seedsPerJob int
}

// desMem is the paper's regime: read-heavy graph workloads (read ratio
// 0.95-0.99, footprint 4-5x DRAM, skew >= 1.15) on Origin and the five
// migrating platforms in both memory modes. Migrations contend with demand
// traffic, and each trace is shared by the job's 12 platform-modes.
var desMem = desGrid{
	platforms:   []config.Platform{config.Origin, config.Hetero, config.OhmBase, config.AutoRW, config.OhmWOM, config.OhmBW},
	modes:       []config.MemMode{config.Planar, config.TwoLevel},
	workloads:   []string{"pagerank", "betw", "sssp", "bfsdata"},
	budget:      200,
	seedsPerJob: 1,
}

// desCompute is the dense, write-mixed kernels (read ratio 0.52-0.70, mild
// skew) on Oracle alone: GPU issue, L1/L2 write-backs and the event kernel
// dominate, and every trace serves exactly one cell.
var desCompute = desGrid{
	platforms:   []config.Platform{config.Oracle},
	modes:       []config.MemMode{config.Planar},
	workloads:   []string{"GRAMS", "FDTD", "backp", "lud"},
	budget:      1000,
	seedsPerJob: 2,
}

// workers is how many cells run at once, in the DES workloads' runner and
// in the service's. One: on a host of two shared vCPUs a second worker
// made a job's time depend on how fast the slower vCPU happened to be.
const workers = 1

// smallBudget is the self-test's per-warp instruction budget.
const smallBudget = 200

// warmJob is the first job index set-up uses; measured jobs count up from
// 0, so their seeds never meet set-up's.
const warmJob = 1 << 40

// verifyJob is the traced run's verification job. Its index is fixed, so
// its seeds, and with them the model counts, depend on the run's seed
// alone: not on how many jobs the host finished before it.
const verifyJob = warmJob - 1

// spec is job j's sweep.
func (g desGrid) spec(o options, j uint64) batch.SweepSpec {
	seeds := make(batch.Axis, g.seedsPerJob)
	for i := range seeds {
		seeds[i] = simSeed(o.seed, j*uint64(g.seedsPerJob)+uint64(i))
	}
	budget := g.budget
	if o.small {
		budget = smallBudget
	}
	return batch.SweepSpec{
		Platforms:       g.platforms,
		Modes:           g.modes,
		Workloads:       g.workloads,
		MaxInstructions: budget,
		Overrides:       batch.Overrides{"seed": seeds},
	}
}

// wantInstructions is warps x budget: every warp retires its whole trace.
func wantInstructions(cfg *config.Config, inject bool) uint64 {
	n := uint64(cfg.GPU.SMs * cfg.GPU.WarpsPerSM * cfg.MaxInstructions)
	if inject {
		n++
	}
	return n
}

// checkReport verifies the conservation laws a report shows on its own.
func checkReport(label string, want uint64, rep stats.Report) error {
	switch {
	case rep.Instructions != want:
		return fmt.Errorf("%s: %d instructions retired, want warps x budget = %d", label, rep.Instructions, want)
	case rep.MemRequests == 0 || rep.Elapsed <= 0:
		return fmt.Errorf("%s: empty run (%d requests, elapsed %v)", label, rep.MemRequests, rep.Elapsed)
	case rep.MeanLatency <= 0 || rep.MeanLatency > rep.P99Latency:
		return fmt.Errorf("%s: mean latency %v outside (0, p99 %v]", label, rep.MeanLatency, rep.P99Latency)
	case rep.CopyFraction < 0 || rep.CopyFraction > 1:
		return fmt.Errorf("%s: copy fraction %v outside [0, 1]", label, rep.CopyFraction)
	}
	for k, v := range rep.EnergyPJ {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s: energy %s = %v is not finite and non-negative", label, k, v)
		}
	}
	if rep.TotalEnergyPJ() <= 0 {
		return fmt.Errorf("%s: no energy", label)
	}
	return nil
}

// jobStats is one completed job.
type jobStats struct {
	wall  time.Duration
	cells int
	instr uint64
}

// runJob runs job j through the runner and checks every cell.
func (g desGrid) runJob(ctx context.Context, o options, runner *batch.Runner, j uint64, t *tally) (jobStats, error) {
	start := time.Now()
	cells, err := g.spec(o, j).Cells()
	if err != nil {
		return jobStats{}, err
	}
	reps, err := runner.RunContext(ctx, cells, nil)
	s := jobStats{wall: time.Since(start), cells: len(cells)}
	if err != nil {
		for range cells {
			t.record(err)
		}
		return s, nil
	}
	for i, rep := range reps {
		c := &cells[i]
		t.record(checkReport(c.String(), wantInstructions(&c.Config, o.inject), rep))
		s.instr += rep.Instructions
	}
	return s, nil
}

// loop runs jobs first, first+1, ... until d has passed.
func loop(d time.Duration, first uint64, job func(uint64) (jobStats, error)) ([]jobStats, time.Duration, uint64, error) {
	var jobs []jobStats
	start := time.Now()
	j := first
	for time.Since(start) < d {
		s, err := job(j)
		if err != nil {
			return nil, 0, 0, err
		}
		jobs = append(jobs, s)
		j++
	}
	return jobs, time.Since(start), j, nil
}

// runDES runs a DES workload: set-up, then cold sweeps for o.seconds with a
// reference-clock tick between them.
func runDES(o options, g desGrid) (*result, error) {
	ctx := context.Background()
	res := newResult()
	clk := newRefClock()
	var runner *batch.Runner
	var setups []jobSample
	for i := 0; i < max(1, o.setups); i++ {
		clk.tick()
		start := time.Now()
		runner = batch.NewRunner(workers, nil)
		if _, err := g.runJob(ctx, o, runner, warmJob+uint64(i), &res.tally); err != nil {
			return nil, err
		}
		setups = append(setups, jobSample{wall: time.Since(start), end: clk.now()})
	}
	untraced := func(j uint64) (jobStats, error) { return g.runJob(ctx, o, runner, j, &res.tally) }
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return res, g.traced(ctx, o, runner, d, untraced, res)
	}

	var samples []jobSample
	_, _, _, err := loop(d, 0, func(j uint64) (jobStats, error) {
		s, err := untraced(j)
		samples = append(samples, jobSample{wall: s.wall, end: clk.now(), instr: s.instr})
		clk.maybeTick()
		return s, err
	})
	if err != nil {
		return nil, err
	}
	res.setJobMetrics(clk, samples)
	res.set("setup_s", clk.medianSeconds(setups))
	return res, nil
}

// traceKey is every input trace.Generate reads.
type traceKey struct {
	workload                         string
	seed                             uint64
	budget, sms, warps, lineB, pageB int
}

func traceKeyOf(c *batch.Cell) traceKey {
	cfg := &c.Config
	return traceKey{c.Workload, cfg.Seed, cfg.MaxInstructions, cfg.GPU.SMs, cfg.GPU.WarpsPerSM, cfg.GPU.LineBytes, cfg.Memory.PageBytes}
}

// jobTrace is one generated trace and its memory-op count.
type jobTrace struct {
	tr     *trace.Trace
	memOps uint64
}

// generate builds each distinct trace of a job once, serially, timing the
// generation and measuring what it allocates (nothing else runs meanwhile).
func generate(cells []batch.Cell, l *desLayers) (map[traceKey]jobTrace, error) {
	out := make(map[traceKey]jobTrace)
	var mem runtime.MemStats
	for i := range cells {
		c := &cells[i]
		k := traceKeyOf(c)
		if _, ok := out[k]; ok {
			continue
		}
		w, ok := config.WorkloadByName(c.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", c.Workload)
		}
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		start := time.Now()
		tr := trace.Generate(w, &c.Config)
		d := time.Since(start)
		runtime.ReadMemStats(&mem)
		if l != nil {
			l.traces++
			l.genTime += d
			l.genBytes += mem.TotalAlloc - before
		}
		out[k] = jobTrace{tr: tr, memOps: uint64(tr.Measure().MemOps)}
	}
	return out, nil
}

// checkTraced adds the laws only the harness can see to checkReport's.
func checkTraced(c *batch.Cell, rep stats.Report, h *cellHarness, jt jobTrace, inject bool) error {
	if err := checkReport(c.String(), wantInstructions(&c.Config, inject), rep); err != nil {
		return err
	}
	lat := &h.col.MemLatency
	switch {
	case h.tap.n != rep.MemRequests:
		return fmt.Errorf("%s: %d tapped controller accesses, report counts %d requests", c, h.tap.n, rep.MemRequests)
	case h.col.L1Hits+h.col.L1Misses != jt.memOps:
		return fmt.Errorf("%s: L1 hits+misses %d, trace has %d memory ops", c, h.col.L1Hits+h.col.L1Misses, jt.memOps)
	case lat.Min > lat.Mean():
		return fmt.Errorf("%s: min latency %v above mean %v", c, lat.Min, lat.Mean())
	}
	return nil
}

// desLayers accumulates the traced jobs' per-layer timings.
type desLayers struct {
	mu                         sync.Mutex
	traces                     int
	genTime                    time.Duration
	genBytes                   uint64
	cells                      int
	build, loop, tap, finalize time.Duration
	accesses                   uint64
	cellMS                     []float64
}

func (l *desLayers) addCell(ct cellTimes, wall time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cells++
	l.build += ct.build
	l.loop += ct.loop
	l.tap += ct.tap
	l.finalize += ct.finalize
	l.accesses += ct.accesses
	l.cellMS = append(l.cellMS, ms(wall))
}

// modelCounts aggregates the simulated quantities of the verification job
// (verifyJob), a fixed function of the seed: a change that only speeds the
// simulator up must leave every one of them byte-identical.
type modelCounts struct {
	l1Hits, l1Misses, l2Hits, l2Misses, mshrMerges uint64
	migrations                                     uint64
	busyCopy, busyAll                              sim.Time
	latSum                                         sim.Time
	latCount                                       uint64
	p99Sum                                         float64
	cells                                          int
	optReg, optCopy, elecReg, elecCopy             uint64
	dramR, dramW, xpR, xpW                         uint64
	energyPJ                                       float64
	accesses                                       uint64
	replay                                         time.Duration
	replayed                                       uint64
	buildAllocs                                    uint64
}

func (m *modelCounts) add(c *batch.Cell, rep stats.Report, h *cellHarness) {
	col := h.col
	m.cells++
	m.l1Hits += col.L1Hits
	m.l1Misses += col.L1Misses
	m.l2Hits += col.L2Hits
	m.l2Misses += col.L2Misses
	m.mshrMerges += h.gpu.MSHRMerges
	m.migrations += rep.Migrations
	m.busyCopy += col.ChannelBusy[stats.DataCopy]
	m.busyAll += col.ChannelBusy[stats.DataCopy] + col.ChannelBusy[stats.RegularRequest]
	m.latSum += col.MemLatency.Sum
	m.latCount += col.MemLatency.Count
	m.p99Sum += float64(rep.P99Latency) / float64(sim.Nanosecond)
	if c.Config.Platform.Optical() {
		m.optReg += rep.RegularBytes
		m.optCopy += rep.CopyBytes
	} else {
		m.elecReg += rep.RegularBytes
		m.elecCopy += rep.CopyBytes
	}
	m.dramR += h.mem.DRAMReads
	m.dramW += h.mem.DRAMWrites
	m.xpR += h.mem.XPointReads
	m.xpW += h.mem.XPointWrites
	m.energyPJ += rep.TotalEnergyPJ()
	m.accesses += h.tap.n
}

// verify runs job j's cells serially through the harness while recording
// the controller stream, and checks each cell three ways: the harness
// report is byte-identical to the core path's (batch.Runner.RunCellTimed),
// a replay of the stream into a fresh controller reproduces it, and the
// conservation laws hold. It also measures core.NewSystemIn's allocations.
func (g desGrid) verify(ctx context.Context, o options, runner *batch.Runner, h *cellHarness, j uint64, t *tally) (modelCounts, error) {
	var m modelCounts
	cells, err := g.spec(o, j).Cells()
	if err != nil {
		return m, err
	}
	traces, err := generate(cells, nil)
	if err != nil {
		return m, err
	}
	st := core.AcquireRunState()
	defer core.ReleaseRunState(st)
	var before, after runtime.MemStats
	for i := range cells {
		c := &cells[i]
		runtime.ReadMemStats(&before)
		_, buildErr := core.NewSystemIn(st, c.Config)
		runtime.ReadMemStats(&after)
		m.buildAllocs += after.Mallocs - before.Mallocs

		jt := traces[traceKeyOf(c)]
		rep, side, _, err := h.run(c.Config, jt.tr, true)
		if err == nil {
			err = errors.Join(buildErr, checkTraced(c, rep, h, jt, o.inject), sameReport(ctx, runner, c, rep))
		}
		if err == nil {
			var d time.Duration
			d, err = replay(c.Config, h.tap.stream, side)
			m.replay += d
			m.replayed += uint64(len(h.tap.stream))
		}
		t.record(err)
		m.add(c, rep, h)
	}
	return m, nil
}

// sameReport checks the harness report against the same cell run through
// batch.Runner and the core path, byte for byte.
func sameReport(ctx context.Context, runner *batch.Runner, c *batch.Cell, rep stats.Report) error {
	ref, _, _, err := runner.RunCellTimed(ctx, *c)
	if err != nil {
		return err
	}
	a, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: harness report differs from the core path's", c)
	}
	return nil
}

// tracedJob runs job j's cells through per-worker harnesses, recording
// every layer boundary.
func (g desGrid) tracedJob(o options, hs []*cellHarness, j uint64, l *desLayers, t *tally) (jobStats, error) {
	start := time.Now()
	cells, err := g.spec(o, j).Cells()
	if err != nil {
		return jobStats{}, err
	}
	traces, err := generate(cells, l)
	if err != nil {
		return jobStats{}, err
	}

	var next atomic.Int64
	var instr atomic.Uint64
	var wg sync.WaitGroup
	for _, h := range hs[:min(len(hs), len(cells))] {
		wg.Add(1)
		go func(h *cellHarness) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := &cells[i]
				jt := traces[traceKeyOf(c)]
				cellStart := time.Now()
				rep, _, ct, err := h.run(c.Config, jt.tr, false)
				wall := time.Since(cellStart)
				if err == nil {
					err = checkTraced(c, rep, h, jt, o.inject)
				}
				t.record(err)
				l.addCell(ct, wall)
				instr.Add(rep.Instructions)
			}
		}(h)
	}
	wg.Wait()
	return jobStats{wall: time.Since(start), cells: len(cells), instr: instr.Load()}, nil
}

// traced is the --trace 1 run: half the time untraced jobs through
// batch.Runner (the base for trace_overhead_frac and the source of the
// batch.* metrics), the verification job, then half the time traced jobs.
// No result cache is attached, so the runner computes no cell keys and
// batch.key_us and the batch.cache_* metrics read 0.
func (g desGrid) traced(ctx context.Context, o options, runner *batch.Runner, d time.Duration, untraced func(uint64) (jobStats, error), res *result) error {
	aJobs, aWall, next, err := loop(d/2, 0, untraced)
	if err != nil {
		return err
	}
	hs := make([]*cellHarness, workers)
	for i := range hs {
		hs[i] = &cellHarness{}
	}
	m, err := g.verify(ctx, o, runner, hs[0], verifyJob, &res.tally)
	if err != nil {
		return err
	}
	l := &desLayers{}
	bJobs, bWall, _, err := loop(d/2, next, func(j uint64) (jobStats, error) {
		return g.tracedJob(o, hs, j, l, &res.tally)
	})
	if err != nil {
		return err
	}

	cells := float64(l.cells)
	res.set("trace.gen_ms_per_trace", per(ms(l.genTime), float64(l.traces)))
	res.set("trace.alloc_mb_per_trace", per(float64(l.genBytes)/(1<<20), float64(l.traces)))
	res.set("trace.traces", float64(l.traces))
	res.set("core.build_us_per_cell", per(us(l.build), cells))
	res.set("core.build_allocs_per_cell", per(float64(m.buildAllocs), float64(m.cells)))
	res.set("core.cell_ms_p50", quantile(l.cellMS, 0.5))
	res.set("core.cell_ms_p90", quantile(l.cellMS, 0.9))
	res.set("gpu.self_ms_per_cell", per(ms(l.loop-l.tap), cells))
	res.set("hmem.accesses", float64(m.accesses))
	res.set("hmem.ns_per_access", per(float64(l.tap.Nanoseconds()), float64(l.accesses)))
	res.set("hmem.share", per(float64(l.tap), float64(l.loop)))
	res.set("hmem.replay_ns_per_access", per(float64(m.replay.Nanoseconds()), float64(m.replayed)))
	res.set("stats.finalize_us_per_cell", per(us(l.finalize), cells))
	var aCells int
	for _, s := range aJobs {
		aCells += s.cells
	}
	res.set("batch.cells_per_s", float64(aCells)/aWall.Seconds())
	res.set("batch.exec_ms_per_job", per(ms(aWall), float64(len(aJobs))))
	res.set("gpu.l1_hit_rate", per(float64(m.l1Hits), float64(m.l1Hits+m.l1Misses)))
	res.set("gpu.l2_hit_rate", per(float64(m.l2Hits), float64(m.l2Hits+m.l2Misses)))
	res.set("gpu.mshr_merges", float64(m.mshrMerges))
	res.set("hmem.migrations", float64(m.migrations))
	res.set("hmem.copy_fraction", per(float64(m.busyCopy), float64(m.busyAll)))
	res.set("hmem.sim_mean_latency_ns", per(float64(m.latSum)/float64(sim.Nanosecond), float64(m.latCount)))
	res.set("hmem.sim_p99_latency_ns", per(m.p99Sum, float64(m.cells)))
	res.set("optical.bytes_regular", float64(m.optReg))
	res.set("optical.bytes_copy", float64(m.optCopy))
	res.set("elec.bytes_regular", float64(m.elecReg))
	res.set("elec.bytes_copy", float64(m.elecCopy))
	res.set("dram.reads", float64(m.dramR))
	res.set("dram.writes", float64(m.dramW))
	res.set("xpoint.reads", float64(m.xpR))
	res.set("xpoint.writes", float64(m.xpW))
	res.set("energy.total_pj", m.energyPJ)
	res.set("trace_overhead_frac", per(per(bWall.Seconds(), float64(len(bJobs))), per(aWall.Seconds(), float64(len(aJobs))))-1)
	res.set("peak_rss_mb", peakRSSMB())
	return nil
}
