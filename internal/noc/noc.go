// Package noc models the GPU's on-chip interconnect network between the
// SMs and the shared L2 (Figure 2's "interconnect network"). The default
// GPU model charges a constant hop latency; this package provides the
// contention-aware alternative: a crossbar with per-port serialization, so
// bursts of misses from many SMs queue at the L2-side ports. It is
// config-gated (GPUConfig.NoCDetailed) because the published calibration
// uses the constant-latency model; the ablation quantifies the difference.
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Config sizes the crossbar.
type Config struct {
	// Ports is the number of L2-side ports (typically one per L2 slice /
	// memory controller).
	Ports int
	// HopLatency is the zero-load traversal latency (one direction).
	HopLatency sim.Time
	// FlitBytes is the link width per cycle.
	FlitBytes int
	// FreqHz is the network clock.
	FreqHz float64
}

// Default returns a crossbar matching the Table I GPU: 6 L2-side ports at
// the core clock, 32-byte flits, 20 ns zero-load hop.
func Default() Config {
	return Config{Ports: 6, HopLatency: 20 * sim.Nanosecond, FlitBytes: 32, FreqHz: 1.2e9}
}

// Crossbar is the contention-aware interconnect.
type Crossbar struct {
	cfg      Config
	ports    []sim.GapResource
	flitTime sim.Time

	Traversals uint64
}

// New builds the crossbar.
func New(cfg Config) (*Crossbar, error) {
	return NewIn(nil, new(sim.Pools), cfg)
}

// NewIn is New rebuilding into a recycled crossbar: the port tables are
// rebuilt in their slots and clocked by the pools' engine. re may be nil
// (New is NewIn(nil, new(sim.Pools), cfg)), so fresh and pooled
// construction share one code path.
func NewIn(re *Crossbar, pools *sim.Pools, cfg Config) (*Crossbar, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("noc: need at least one port, got %d", cfg.Ports)
	}
	if cfg.FlitBytes <= 0 || cfg.FreqHz <= 0 {
		return nil, fmt.Errorf("noc: flit bytes and frequency must be positive")
	}
	if re == nil {
		re = &Crossbar{}
	}
	*re = Crossbar{
		cfg:      cfg,
		ports:    pools.Tables(re.ports, cfg.Ports),
		flitTime: sim.FreqToPeriod(cfg.FreqHz),
	}
	return re, nil
}

// port routes an address to its L2-side port (line-interleaved like the L2
// slices themselves).
func (x *Crossbar) port(addr uint64, lineBytes int) int {
	return int(addr / uint64(lineBytes) % uint64(len(x.ports)))
}

// Traverse moves n bytes toward addr's L2 port starting at time at and
// returns when the message has fully arrived: hop latency plus the flit
// serialization on the destination port, queued behind other traffic.
func (x *Crossbar) Traverse(at sim.Time, addr uint64, n, lineBytes int) sim.Time {
	p := &x.ports[x.port(addr, lineBytes)]
	flits := (n + x.cfg.FlitBytes - 1) / x.cfg.FlitBytes
	if flits < 1 {
		flits = 1
	}
	dur := sim.Time(flits) * x.flitTime
	_, end := p.Reserve(at+x.cfg.HopLatency, dur)
	x.Traversals++
	return end
}

// Utilization returns the mean port utilization over an elapsed window.
func (x *Crossbar) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 || len(x.ports) == 0 {
		return 0
	}
	sum := 0.0
	for i := range x.ports {
		sum += x.ports[i].Utilization(elapsed)
	}
	return sum / float64(len(x.ports))
}
