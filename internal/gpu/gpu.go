// Package gpu models the baseline GPU of Figure 2: streaming
// multiprocessors executing warps in lockstep with a greedy-then-oldest
// style latency-hiding scheduler, per-SM L1D caches, a shared L2, and an
// interconnect to the memory controllers. The model is trace-driven and
// cycle-approximate: each SM issues at most one warp instruction per core
// cycle; memory instructions traverse L1 -> L2 -> memory controller and
// block only their own warp, so resident warps hide memory latency exactly
// as the paper's MacSim configuration does.
//
// Simplifications (documented in DESIGN.md): the L2 is functional with a
// fixed lookup latency (no bank contention — the channel under study is the
// bottleneck), and L1 write-back traffic to L2 is functional-only.
package gpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MemAccessor is the memory system under the L2 (the hmem controller).
type MemAccessor interface {
	// Access serves a line request arriving at time at and returns when the
	// response is available at the memory controller.
	Access(at sim.Time, addr uint64, write bool) (done sim.Time)
}

// sm is one streaming multiprocessor.
type sm struct {
	issue sim.Resource // one instruction per core cycle
	l1    *cache.Cache
}

// warpRun is the execution state of one resident warp.
type warpRun struct {
	smIdx int
	tr    trace.WarpTrace
	pc    int  // index of the record being executed
	ran   bool // tr[pc]'s compute run has issued
}

// GPU executes traces against a memory system.
type GPU struct {
	cfg   *config.Config
	col   *stats.Collector
	mem   MemAccessor
	eng   *sim.Engine
	sms   []sm
	l2    *cache.Cache
	cycle sim.Time

	// warps is the value-typed execution state of the current kernel's
	// resident warps. Warp i is the engine's slot i, so the issue/retire
	// loop schedules without closures or handler dispatch.
	warps []warpRun

	// mshr tracks outstanding L2 line misses when config.GPU.MSHREntries is
	// positive: a second miss to an in-flight line coalesces onto the first
	// request instead of issuing its own (classic MSHR merging). The table
	// is a bounded linear-probe array rather than a map: MSHREntries is
	// small (hardware MSHRs are 32-64 entries), so a scan beats hashing.
	mshr mshrTable

	// MSHRMerges counts coalesced misses for the ablation experiments.
	MSHRMerges uint64

	// xbar is the contention-aware interconnect (nil = constant latency).
	xbar *noc.Crossbar

	live   int
	finish sim.Time
}

// mshrTable is a fixed-capacity set of outstanding line fills. Lookups scan
// linearly; stale entries (fills already completed) are ignored by callers
// comparing against the current time and purged lazily on insertion when
// the table is full — the exact semantics of the map it replaces.
type mshrTable struct {
	entries []mshrEntry
	cap     int
}

type mshrEntry struct {
	line uint64
	done sim.Time
}

// lookup returns the outstanding fill time for a line, if tracked.
func (t *mshrTable) lookup(line uint64) (sim.Time, bool) {
	for i := range t.entries {
		if t.entries[i].line == line {
			return t.entries[i].done, true
		}
	}
	return 0, false
}

// insert records a fill, overwriting a stale entry for the same line. When
// full it first drops entries whose fill completed by now; if still full
// the line is simply not tracked (MSHR bypass).
func (t *mshrTable) insert(line uint64, done, now sim.Time) {
	for i := range t.entries {
		if t.entries[i].line == line {
			t.entries[i].done = done
			return
		}
	}
	if len(t.entries) >= t.cap {
		kept := t.entries[:0]
		for _, e := range t.entries {
			if e.done > now {
				kept = append(kept, e)
			}
		}
		t.entries = kept
	}
	if len(t.entries) < t.cap {
		t.entries = append(t.entries, mshrEntry{line: line, done: done})
	}
}

// New builds a GPU. The memory accessor must not be nil.
func New(cfg *config.Config, col *stats.Collector, mem MemAccessor) (*GPU, error) {
	return NewIn(nil, new(sim.Pools), cfg, col, mem)
}

// NewIn is New rebuilding into a recycled GPU: the SM array, per-SM L1s,
// the shared L2, the MSHR table and the warp state keep their allocated
// capacity and are reinitialized in place. The GPU runs on the pools'
// engine, the clock of the run's gap tables. re may be nil (New is
// NewIn(nil, new(sim.Pools), ...)), so fresh and pooled construction share
// one code path.
func NewIn(re *GPU, pools *sim.Pools, cfg *config.Config, col *stats.Collector, mem MemAccessor) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("gpu: nil memory accessor")
	}
	if col == nil {
		return nil, fmt.Errorf("gpu: nil collector")
	}
	if re == nil {
		re = &GPU{}
	}
	g := re
	mshrEntries := g.mshr.entries
	*g = GPU{
		cfg:   cfg,
		col:   col,
		mem:   mem,
		eng:   pools.Engine(),
		cycle: sim.FreqToPeriod(cfg.GPU.CoreFreqHz),
		sms:   sim.Slots(g.sms, cfg.GPU.SMs),
		l2:    g.l2,
		warps: g.warps[:0],
		xbar:  g.xbar,
	}
	for i := range g.sms {
		l1, err := cache.NewIn(g.sms[i].l1, "l1", cfg.GPU.L1SizeBytes, cfg.GPU.L1Ways, cfg.GPU.LineBytes)
		if err != nil {
			return nil, err
		}
		g.sms[i] = sm{l1: l1}
	}
	l2, err := cache.NewIn(g.l2, "l2", cfg.GPU.L2SizeBytes, cfg.GPU.L2Ways, cfg.GPU.LineBytes)
	if err != nil {
		return nil, err
	}
	g.l2 = l2
	if cfg.GPU.MSHREntries > 0 {
		if cap(mshrEntries) < cfg.GPU.MSHREntries {
			mshrEntries = make([]mshrEntry, 0, cfg.GPU.MSHREntries)
		} else {
			mshrEntries = mshrEntries[:0]
		}
		g.mshr = mshrTable{entries: mshrEntries, cap: cfg.GPU.MSHREntries}
	} else {
		g.mshr = mshrTable{}
	}
	if cfg.GPU.NoCDetailed {
		ncfg := noc.Default()
		ncfg.Ports = cfg.GPU.MemCtrls
		ncfg.HopLatency = cfg.GPU.InterconnectL
		ncfg.FreqHz = cfg.GPU.CoreFreqHz
		xbar, err := noc.NewIn(g.xbar, pools, ncfg)
		if err != nil {
			return nil, err
		}
		g.xbar = xbar
	} else {
		g.xbar = nil
	}
	return g, nil
}

// Crossbar exposes the detailed interconnect when enabled (nil otherwise).
func (g *GPU) Crossbar() *noc.Crossbar { return g.xbar }

// toL2 returns when a request of n bytes issued at time at reaches the L2:
// the constant hop by default, the crossbar traversal when detailed.
func (g *GPU) toL2(at sim.Time, addr uint64, n int) sim.Time {
	if g.xbar == nil {
		return at + g.cfg.GPU.InterconnectL
	}
	return g.xbar.Traverse(at, addr, n, g.cfg.GPU.LineBytes)
}

// Run executes one kernel (trace) to completion and returns the elapsed
// simulated time. Warps are assigned to SMs round-robin.
func (g *GPU) Run(tr *trace.Trace) sim.Time {
	g.finish = 0
	g.live = 0
	g.warps = g.warps[:0]
	for i, wt := range tr.Warps {
		if len(wt) == 0 {
			continue
		}
		g.warps = append(g.warps, warpRun{smIdx: i % len(g.sms), tr: wt})
		g.live++
	}
	// The engine is reused across runs (and across pooled rebuilds): Start
	// rewinds it to time zero with every warp due, in warp order, and keeps
	// its tree.
	g.eng.Start(len(g.warps))
	for {
		wi, ok := g.eng.Next()
		if !ok {
			break
		}
		g.step(wi)
	}
	if g.live != 0 {
		panic(fmt.Sprintf("gpu: %d warps still live after event queue drained", g.live))
	}
	return g.finish
}

// step advances the warp the engine just fired from the current engine
// time and reschedules it, or retires it once its trace is done. Each
// record takes up to two events: its compute run, then its memory op.
func (g *GPU) step(wi int) {
	w := &g.warps[wi]
	now := g.eng.Now()
	s := &g.sms[w.smIdx]
	for w.pc < len(w.tr) {
		op := &w.tr[w.pc]
		if !w.ran && op.Run > 0 {
			// The run of compute instructions before the op: Run cycles
			// on the issue port.
			w.ran = true
			g.col.Instructions += uint64(op.Run)
			_, end := s.issue.Reserve(now, sim.Time(op.Run)*g.cycle)
			g.eng.Reschedule(end)
			return
		}
		w.pc++
		w.ran = false
		if op.Kind == trace.Compute {
			continue // a trailing run has no op after it
		}
		// Memory instruction: one issue slot, then the memory hierarchy.
		g.col.Instructions++
		_, issued := s.issue.Reserve(now, g.cycle)
		resume := g.memAccess(s, issued, op.Addr, op.Kind == trace.Store)
		g.eng.Reschedule(resume)
		return
	}
	g.live--
	if now > g.finish {
		g.finish = now
	}
}

// memAccess walks L1 -> L2 -> memory and returns when the warp may resume.
// Stores resume at L1 commit (write-back caches absorb them); loads resume
// when data returns.
func (g *GPU) memAccess(s *sm, at sim.Time, addr uint64, write bool) sim.Time {
	gcfg := &g.cfg.GPU

	r1 := s.l1.Access(addr, write)
	if r1.Hit {
		g.col.L1Hits++
		return at + gcfg.L1Latency
	}
	g.col.L1Misses++
	// L1 dirty victim falls into L2 (functional only).
	if r1.WritebackValid {
		g.l2.Access(r1.Writeback, true)
	}

	l2At := g.toL2(at+gcfg.L1Latency, addr, 16)
	r2 := g.l2.Access(addr, write)
	if r2.Hit {
		g.col.L2Hits++
		done := l2At + gcfg.L2Latency
		if g.mshr.cap > 0 {
			// The line may be resident but still in flight from memory:
			// a hit on it merges onto the outstanding fill (MSHR
			// semantics) instead of returning instantly.
			lineAddr := addr / uint64(gcfg.LineBytes) * uint64(gcfg.LineBytes)
			if fill, ok := g.mshr.lookup(lineAddr); ok && fill > done {
				g.MSHRMerges++
				done = fill
			}
		}
		if write {
			return at + gcfg.L1Latency // store buffered at L1/L2
		}
		return done + gcfg.InterconnectL
	}
	g.col.L2Misses++
	// L2 dirty victim is written back to memory; it occupies the channel
	// but does not block this warp.
	memAt := l2At + gcfg.L2Latency
	if r2.WritebackValid {
		g.mem.Access(memAt, r2.Writeback, true)
	}
	if g.mshr.cap > 0 && !write {
		lineAddr := addr / uint64(gcfg.LineBytes) * uint64(gcfg.LineBytes)
		if done, ok := g.mshr.lookup(lineAddr); ok && done > memAt {
			// Coalesce onto the in-flight miss.
			g.MSHRMerges++
			return done + gcfg.InterconnectL
		}
		done := g.mem.Access(memAt, addr, false)
		g.mshr.insert(lineAddr, done, memAt)
		return done + gcfg.InterconnectL
	}
	done := g.mem.Access(memAt, addr, write)
	if write {
		// Store: the warp resumes once the L1/L2 committed the line; the
		// memory write completes in the background.
		return at + gcfg.L1Latency
	}
	return done + gcfg.InterconnectL
}

// L1HitRate aggregates hit rate across SMs.
func (g *GPU) L1HitRate() float64 {
	var h, m uint64
	for i := range g.sms {
		h += g.sms[i].l1.Hits
		m += g.sms[i].l1.Misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// L2HitRate returns the shared L2's hit rate.
func (g *GPU) L2HitRate() float64 { return g.l2.HitRate() }
