// Package core is the public face of the Ohm-GPU reproduction: it assembles
// a complete simulated system (GPU multiprocessor + Ohm memory system) for
// any of the paper's seven platforms and runs Table II workloads on it,
// producing the measurements the evaluation section reports (IPC, memory
// latency, channel bandwidth split, energy breakdown).
//
// Every build goes through a RunState; nil means a new one. Typical use:
//
//	sys, err := core.NewSystemIn(nil, config.Default(config.OhmBW, config.Planar))
//	rep, err := sys.RunWorkload("pagerank")
//	fmt.Println(rep.IPC, rep.MeanLatency)
//
// A caller that needs only the report (and its phase timings) makes one
// call, reusing a pooled state across cells. The Variant picks one of the
// figure and ablation runs — another host link, a phased trace, a probe
// counter — or, as DefaultRun, the plain cell:
//
//	st := core.AcquireRunState()
//	defer core.ReleaseRunState(st)
//	rep, phases, err := core.Run(st, cfg, w, core.DefaultRun)
package core

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// System is one fully-assembled platform instance. A System is single-use
// per workload run in the sense that caches and channel accounting carry
// over between runs; build a System per experiment cell for independent
// measurements (the figure and ablation experiments do).
type System struct {
	Cfg config.Config
	Col *stats.Collector
	Mem *hmem.Controller
	GPU *gpu.GPU

	model energy.Model
}

// NewSystemIn builds a platform from a configuration into a run state,
// using the default PCIe host link for spill traffic. A nil st means a new,
// empty state.
func NewSystemIn(st *RunState, cfg config.Config) (*System, error) {
	return newSystem(st, cfg, nil)
}

// newSystem is NewSystemIn with a host/storage link for Origin's spill
// path (nil means the default PCIe model). A new state and a recycled one
// take the same path: the components are reinitialized through their NewIn
// constructors from the state's pools, which is what guarantees a pooled
// System produces byte-identical reports.
func newSystem(st *RunState, cfg config.Config, host hmem.HostLink) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if st == nil {
		st = new(RunState)
	}
	if st.col == nil {
		st.col = stats.NewCollector()
	} else {
		st.col.Reset()
	}
	st.pools.Reset()
	mem, err := hmem.NewIn(st.mem, &st.pools, &cfg, st.col, host)
	if err != nil {
		return nil, fmt.Errorf("core: memory system: %w", err)
	}
	st.mem = mem
	g, err := gpu.NewIn(st.gpu, &st.pools, &cfg, st.col, mem)
	if err != nil {
		return nil, fmt.Errorf("core: gpu: %w", err)
	}
	st.gpu = g
	return &System{Cfg: cfg, Col: st.col, Mem: mem, GPU: g, model: energy.Default()}, nil
}

// RunTrace executes a prepared trace and returns the run report.
func (s *System) RunTrace(tr *trace.Trace) stats.Report {
	elapsed := s.GPU.Run(tr)
	s.model.Finalize(s.Col, &s.Cfg, energy.Counters{
		Elapsed:      elapsed,
		DRAMReads:    s.Mem.DRAMReads,
		DRAMWrites:   s.Mem.DRAMWrites,
		XPointReads:  s.Mem.XPointReads,
		XPointWrites: s.Mem.XPointWrites,
	})
	s.Col.Extra["l1-hit-rate"] = s.GPU.L1HitRate()
	s.Col.Extra["l2-hit-rate"] = s.GPU.L2HitRate()
	return s.Col.Snapshot(elapsed, s.Cfg.GPU.CoreFreqHz)
}

// RunWorkload runs the named Table II workload. The trace comes from the
// in-process registry (traces are deterministic in the config), so
// multi-cell sweeps generate each distinct trace once instead of once per
// cell; execution never mutates it.
func (s *System) RunWorkload(name string) (stats.Report, error) {
	tr, err := trace.CachedByName(name, &s.Cfg)
	if err != nil {
		return stats.Report{}, err
	}
	return s.RunTrace(tr), nil
}

// Run builds cfg's platform into st (nil means a new state) and runs the
// workload definition w on it — a Table II entry or an inline custom
// workload — as variant v. The variant picks the host link (default PCIe,
// the scaled SSD or a zero-cost link), the trace (the registry's shared
// one, or a private phased one) and the counters folded into Extra; an
// unknown variant is an error. The trace registry keys on the full
// definition, so two custom workloads sharing a name get distinct traces,
// and a definition equal to a Table II entry shares that entry's trace.
//
// Alongside the report, Run returns the wall-clock split of the cell's
// three phases: platform construction, trace generation (near zero when
// the registry already holds the trace) and the discrete-event loop.
// Timing rides alongside, never inside, the pinned stats.Report.
func Run(st *RunState, cfg config.Config, w config.Workload, v Variant) (stats.Report, obs.Phases, error) {
	var ph obs.Phases
	phases, err := v.phases()
	if err != nil {
		return stats.Report{}, ph, err
	}
	t := time.Now()
	var host hmem.HostLink
	var dev *ssd.Device
	switch v {
	case SSDHost:
		dev = ssd.New(fig3SSD())
		host = dev
	case InstantHost:
		host = instantHost{}
	}
	sys, err := newSystem(st, cfg, host)
	ph.PlatformBuild = time.Since(t)
	if err != nil {
		return stats.Report{}, ph, err
	}
	t = time.Now()
	var tr *trace.Trace
	if phases > 0 {
		tr = trace.GeneratePhased(w, &sys.Cfg, phases)
	} else {
		tr = trace.Cached(w, &sys.Cfg)
	}
	ph.TraceGen = time.Since(t)
	t = time.Now()
	rep := sys.RunTrace(tr)
	ph.EventLoop = time.Since(t)
	sys.fold(v, dev, rep.Extra)
	return rep, ph, nil
}
