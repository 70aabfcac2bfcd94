package hmem

import (
	"repro/internal/sim"
)

// pcieHost is the default host link for Origin's spill path: host-DRAM
// staging over PCIe. A single shared DMA engine serializes transfers,
// which is what makes Origin's frequent host copies so expensive
// (Section VI-A: Origin degrades 42% versus Hetero). The controller's
// accessOrigin charges the staging energy, for this link and any other.
type pcieHost struct {
	dma   *sim.Resource
	setup sim.Time
	bwBps float64
}

// defaultHostLink returns the default link with its DMA resource drawn
// from pools.
func defaultHostLink(pools *sim.Pools) pcieHost {
	return pcieHost{
		dma:   pools.Resource(),
		setup: 2 * sim.Microsecond,
		bwBps: 18e9, // PCIe 3.0 x16-class staging
	}
}

// Stage transfers n bytes between host and GPU memory. Only the wire time
// occupies the shared DMA link; the programming setup adds latency to this
// transfer without blocking queued ones.
func (h *pcieHost) Stage(at sim.Time, n int64, write bool) sim.Time {
	wire := sim.Time(float64(n) / h.bwBps * 1e12)
	_, end := h.dma.Reserve(at, wire)
	return end + h.setup
}
