package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/xpoint"
)

// Variant names a run that differs from the default cell in one
// mechanism: the host link Origin stages spilled pages over, a trace whose
// hot set rotates, or a device counter folded into the report's Extra map.
// It is a closed set. The value is part of a cell's cache key and travels
// to remote workers as the cell's "salt", so each constant keeps the
// string its experiment has always been keyed under.
type Variant string

const (
	// DefaultRun is the plain cell: PCIe host link, the shared trace, no
	// probe counters.
	DefaultRun Variant = ""
	// SSDHost stages Origin's spill traffic from a scaled Z-NAND SSD over
	// DMA (Figure 3a) and reports the flash and DMA engine occupancy in
	// seconds as "ssd-storage-s" and "ssd-dma-s".
	SSDHost Variant = "fig3a-ssd"
	// InstantHost stages at zero cost: Figure 3b's no-DMA counterfactual.
	InstantHost Variant = "fig3b-instant-host"
	// WearProbe reports the XPoint wear summary: the worst line's writes,
	// all media writes and the number of lines.
	WearProbe Variant = "endurance-wear"
	// MaxWearProbe reports the worst XPoint line's writes.
	MaxWearProbe Variant = "abl-max-wear"
	// MergesProbe reports how many L2 misses the MSHRs coalesced.
	MergesProbe Variant = "abl-mshr-merges"
	// BorrowsProbe reports the optical channel's wavelength borrows.
	BorrowsProbe Variant = "abl-vc-borrows"
)

const phasedPrefix = "abl-phased-"

// Phased runs a private trace whose hot set rotates n times over the run
// (trace.GeneratePhased) instead of the shared static one; n is at least 1.
func Phased(n int) Variant { return Variant(phasedPrefix + strconv.Itoa(n)) }

// ProbePrefix namespaces the probe variants' counters inside Report.Extra,
// apart from the run-wide extras every report carries.
const ProbePrefix = "abl:"

// phases returns a Phased variant's rotation count and 0 for every other
// known variant. Variants reach remote workers over HTTP, so an unknown
// or non-canonical one is an error, never a panic.
func (v Variant) phases() (int, error) {
	switch v {
	case DefaultRun, SSDHost, InstantHost, WearProbe, MaxWearProbe, MergesProbe, BorrowsProbe:
		return 0, nil
	}
	if s, ok := strings.CutPrefix(string(v), phasedPrefix); ok {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 && Phased(n) == v {
			return n, nil
		}
	}
	return 0, fmt.Errorf("core: unknown run variant %q", v)
}

// SharedTrace reports whether Run reads the variant's trace from the
// shared registry: true for every known variant but the Phased ones,
// which generate a private trace, and false for an unknown one, which
// Run rejects before reading any trace.
func (v Variant) SharedTrace() bool {
	n, err := v.phases()
	return err == nil && n == 0
}

// fig3SSD returns the SSD configuration for the motivation study. The
// device's latencies and bandwidths are scaled up by the footprint
// scale-down (~150x): compute time does not shrink with MemScale (the GPU
// clock is unscaled), so an unscaled SSD would swamp compute entirely and
// the breakdown would degenerate to 100% staging. Scaling the staging path
// by the same factor as the footprints preserves the testbed's
// staging:compute proportions, which is what Figure 3a reports.
func fig3SSD() ssd.Config {
	return ssd.Config{
		ReadLatency:     500 * sim.Nanosecond,
		WriteLatency:    800 * sim.Nanosecond,
		BandwidthBps:    480e9,
		DMABandwidthBps: 240e9,
		DMASetup:        200 * sim.Nanosecond,
	}
}

// instantHost is a zero-cost host link: the counterfactual "no DMA"
// system Figure 3b compares against.
type instantHost struct{}

func (instantHost) Stage(at sim.Time, n int64, write bool) sim.Time { return at }

// fold writes the variant's counters into a finished run's Extra map. dev
// is the SSD an SSDHost run staged from. A probe of a component the
// platform lacks (wear on a DRAM-only platform, borrows on an electrical
// channel) reads 0.
func (s *System) fold(v Variant, dev *ssd.Device, extra map[string]float64) {
	switch v {
	case SSDHost:
		extra["ssd-storage-s"] = dev.FlashBusy().Seconds()
		extra["ssd-dma-s"] = dev.DMABusy().Seconds()
	case WearProbe:
		ws := s.wear()
		extra[ProbePrefix+"max-wear"] = float64(ws.Max)
		extra[ProbePrefix+"total-writes"] = float64(ws.Total)
		extra[ProbePrefix+"wear-lines"] = float64(ws.Lines)
	case MaxWearProbe:
		extra[ProbePrefix+"max-wear"] = float64(s.wear().Max)
	case MergesProbe:
		extra[ProbePrefix+"merges"] = float64(s.GPU.MSHRMerges)
	case BorrowsProbe:
		var borrows uint64
		if ch := s.Mem.Optical(); ch != nil {
			borrows = ch.Borrows
		}
		extra[ProbePrefix+"borrows"] = float64(borrows)
	}
}

// wear sums XPoint wear over every controller: the worst line, all media
// writes and all lines (Min is left zero).
func (s *System) wear() xpoint.WearStats {
	var ws xpoint.WearStats
	for mc := 0; mc < s.Cfg.GPU.MemCtrls; mc++ {
		xc := s.Mem.XPointAt(mc)
		if xc == nil {
			continue
		}
		w := xc.Wear()
		ws.Max = max(ws.Max, w.Max)
		ws.Total += w.Total
		ws.Lines += w.Lines
	}
	return ws
}
