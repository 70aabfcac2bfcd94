package main

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cellHarness assembles a cell the way core.NewSystemIn does — hmem.NewIn
// and gpu.NewIn over its own recycled collector, pools and components —
// but puts a timing tap between the GPU and the memory controller, so the
// event loop splits into time inside hmem and time everywhere else. Its
// report is checked byte-identical to the core path's for the same cell,
// so the per-layer numbers describe the program the end-to-end numbers
// measure.
type cellHarness struct {
	cfg   config.Config
	col   *stats.Collector
	pools *sim.Pools
	mem   *hmem.Controller
	gpu   *gpu.GPU
	tap   memTap
}

// memTap is the gpu.MemAccessor the harness installs. It forwards every
// request to the controller, times the call and, when recording, keeps the
// request stream for replay.
type memTap struct {
	mem    *hmem.Controller
	n      uint64
	busy   time.Duration
	record bool
	stream []access
}

// access is one recorded controller request and its completion time.
type access struct {
	at, done sim.Time
	addr     uint64
	write    bool
}

func (t *memTap) Access(at sim.Time, addr uint64, write bool) sim.Time {
	start := time.Now()
	done := t.mem.Access(at, addr, write)
	t.busy += time.Since(start)
	t.n++
	if t.record {
		t.stream = append(t.stream, access{at: at, done: done, addr: addr, write: write})
	}
	return done
}

// cellTimes is one harness run's wall-time split.
type cellTimes struct {
	build, loop, finalize time.Duration
	tap                   time.Duration // inside hmem.Controller.Access
	accesses              uint64
}

// memSide is the controller-visible state of a run: what a replay of the
// recorded request stream into a fresh controller must reproduce.
type memSide struct {
	requests, reads, writes  uint64
	latency                  stats.LatencyDist
	channelBytes             [2]uint64
	channelBusy              [2]sim.Time
	migrations, migrated     uint64
	snarfed, dualRoute, host uint64
	hostTime                 sim.Time
	dramR, dramW, xpR, xpW   uint64
}

func sideOf(col *stats.Collector, mem *hmem.Controller) memSide {
	return memSide{
		requests: col.MemRequests, reads: col.Reads, writes: col.Writes,
		latency:      col.MemLatency,
		channelBytes: col.ChannelBytes, channelBusy: col.ChannelBusy,
		migrations: col.Migrations, migrated: col.MigratedBytes,
		snarfed: col.SnarfedBytes, dualRoute: col.DualRouteBytes, host: col.HostBytes,
		hostTime: col.HostTime,
		dramR:    mem.DRAMReads, dramW: mem.DRAMWrites, xpR: mem.XPointReads, xpW: mem.XPointWrites,
	}
}

// build assembles cfg's system into the harness's recycled components.
func (h *cellHarness) build(cfg config.Config, record bool) error {
	h.cfg = cfg
	if err := h.cfg.Validate(); err != nil {
		return err
	}
	if h.col == nil {
		h.col = stats.NewCollector()
	} else {
		h.col.Reset()
	}
	if h.pools == nil {
		h.pools = &sim.Pools{}
	}
	h.pools.Reset()
	mem, err := hmem.NewIn(h.mem, h.pools, &h.cfg, h.col, nil)
	if err != nil {
		return fmt.Errorf("memory system: %w", err)
	}
	h.mem = mem
	h.tap = memTap{mem: mem, record: record, stream: h.tap.stream[:0]}
	g, err := gpu.NewIn(h.gpu, h.pools, &h.cfg, h.col, &h.tap)
	if err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	h.gpu = g
	return nil
}

// run builds and simulates one cell, finishing it exactly as
// core.System.RunTrace does.
func (h *cellHarness) run(cfg config.Config, tr *trace.Trace, record bool) (stats.Report, memSide, cellTimes, error) {
	var ct cellTimes
	start := time.Now()
	if err := h.build(cfg, record); err != nil {
		return stats.Report{}, memSide{}, ct, err
	}
	ct.build = time.Since(start)

	start = time.Now()
	elapsed := h.gpu.Run(tr)
	ct.loop = time.Since(start)
	ct.tap, ct.accesses = h.tap.busy, h.tap.n
	side := sideOf(h.col, h.mem)

	start = time.Now()
	energy.Default().Finalize(h.col, &h.cfg, energy.Counters{
		Elapsed:      elapsed,
		DRAMReads:    h.mem.DRAMReads,
		DRAMWrites:   h.mem.DRAMWrites,
		XPointReads:  h.mem.XPointReads,
		XPointWrites: h.mem.XPointWrites,
	})
	h.col.Extra["l1-hit-rate"] = h.gpu.L1HitRate()
	h.col.Extra["l2-hit-rate"] = h.gpu.L2HitRate()
	rep := h.col.Snapshot(elapsed, h.cfg.GPU.CoreFreqHz)
	ct.finalize = time.Since(start)
	return rep, side, ct, nil
}

// replay feeds a recorded request stream into a fresh controller with no
// GPU in front of it. Every completion time and the final controller state
// must match the recorded run. It returns the time spent in Access.
func replay(cfg config.Config, stream []access, want memSide) (time.Duration, error) {
	col := stats.NewCollector()
	mem, err := hmem.New(&cfg, col, nil)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	start := time.Now()
	for i, a := range stream {
		if done := mem.Access(a.at, a.addr, a.write); done != a.done {
			return 0, fmt.Errorf("replay: request %d completes at %v, the GPU run saw %v", i, done, a.done)
		}
	}
	d := time.Since(start)
	if got := sideOf(col, mem); got != want {
		return d, fmt.Errorf("replay: controller state %+v differs from the recorded run's %+v", got, want)
	}
	return d, nil
}
