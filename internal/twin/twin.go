// Package twin is the analytical twin of the discrete-event simulator: a
// closed-form estimator that maps a resolved configuration plus workload to
// a stats.Report-shaped result without running the event loop. The model
// mirrors each DES component with its first-order analytical counterpart —
// Zipf/Che cache hit rates for the trace registry's reference process,
// serialization and M/D/1-style queueing for the optical/electrical
// channels, occupancy bounds for DRAM banks and XPoint partitions, and the
// exact energy coefficient set — so a twin cell costs microseconds where a
// warm DES cell costs tens of milliseconds. Accuracy is continuously
// cross-validated against the kernel by the calibration suite
// (calibrate_test.go, scripts/twincheck); per-metric error bars ride along
// in Report.Extra["twin:mape:<metric>"].
package twin

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ModelVersion names the twin's model generation. It salts analytical cache
// keys so twin results can never collide with DES results or with results
// from an older model, and is reported in Extra["twin:model-version"].
const ModelVersion = "twin-v1"

// modelVersionNum is ModelVersion as a number for the Extra map.
const modelVersionNum = 1

// Calibration constants: first-order coefficients for effects the
// closed-form model cannot derive from the configuration alone. Values are
// fitted once against the DES kernel by the calibration suite and pinned by
// testdata/twin/calibration.json; see docs/reference/analytical.md for the
// derivation and known-bad regions.
const (
	// rowLocalitySurvival is the fraction of a warp's sequential-run row
	// locality that survives interleaving with the other ~127 warps at the
	// memory controller.
	rowLocalitySurvival = 0.6
	// rowConflictShare is the fraction of row misses that find a different
	// row open (paying tRP) rather than a precharged bank.
	rowConflictShare = 0.5
	// directMapFactor derates the two-level DRAM cache's Che capacity for
	// direct-mapped conflict misses (Che assumes full associativity).
	directMapFactor = 0.7
	// utilizationCap bounds every queueing-model utilization: past it the
	// throughput legs, not the latency inflation, own the estimate.
	utilizationCap = 0.95
	// xpInflateCap bounds XPoint partition-contention latency inflation.
	xpInflateCap = 4.0
	// hotFilterBlend interpolates the hottest-VC traffic concentration
	// between the post-L2 miss stream (0: hot pages hit on-chip, traffic is
	// near-uniform) and the raw popularity stream (1: no filtering). The L2
	// filters most but not all of the concentration — writebacks, thrash
	// windows and MC-side row traffic keep part of the raw skew alive.
	hotFilterBlend = 0.5
	// littleLoadConc and littleStoreConc set the outstanding-request
	// population for the saturated-latency floor (Little's law): each warp
	// parks about one blocked load at the bottleneck, while fire-and-forget
	// stores pile up behind it in proportion to their share of the mix.
	littleLoadConc  = 0.75
	littleStoreConc = 2.0
	// tailBase maps the mean latency to the p99 tail of ordinary request
	// mixtures (a few× the mean). Platform-specific burst tails — Origin's
	// DMA backlog, the swap platforms' swap window — ride in
	// passOut.burstLat instead.
	tailBase = 4.0
	// hostBytesPerSec and hostSetup mirror the PCIe host link model.
	hostBytesPerSec = 18e9
	hostSetup       = 2e-6
)

// cmdB mirrors hmem's command/metadata message size on the channel.
const cmdB = 16

// errorBars is the per-metric MAPE the calibration suite measured for the
// current ModelVersion across all presets × Table II workloads (both memory
// modes). calibrate_test asserts these stay consistent with the committed
// testdata/twin/calibration.json baseline, so the error bars a report
// carries are always the honest measured ones.
var errorBars = map[string]float64{
	"ipc":          0.1523,
	"elapsed":      0.1501,
	"mean-latency": 0.2835,
	"p99-latency":  0.4250,
	"energy":       0.2560,
	"mem-requests": 0.0965,
}

// ErrorBars returns a copy of the calibrated per-metric MAPE table.
func ErrorBars() map[string]float64 {
	out := make(map[string]float64, len(errorBars))
	for k, v := range errorBars {
		out[k] = v
	}
	return out
}

// Estimate produces the analytical report for a resolved configuration and
// workload. It is deterministic, allocation-light, and costs microseconds.
func Estimate(cfg *config.Config, w config.Workload) stats.Report {
	e := newEst(cfg, w)
	return e.report()
}

// path is one request-latency component of the MC latency mixture.
type path struct {
	w   float64 // request count
	lat float64 // seconds
}

// passOut is one fixed-point iteration's view of the memory system.
type passOut struct {
	busyFwdReg, busyBwdReg   float64 // data-route occupancy, regular class
	busyFwdCopy, busyBwdCopy float64 // data-route occupancy, migration class
	busyMem                  float64 // memory-route occupancy (dual routes)
	regBytes, copyBytes      float64
	dualBytes, snarfBytes    float64

	dramReads, dramWrites float64
	xpReads, xpWrites     float64
	xpDevBusy             float64 // partition-seconds of XPoint media work
	dramDevBusy           float64 // bank-seconds of DRAM work

	memReqs                   float64
	migrations, migratedBytes float64
	hostBytes, hostStages     float64
	hostTime, dmaBusy         float64
	dmaEnergyPJ               float64

	paths      []path
	loadMemLat float64 // load-visible MC latency (seconds)
	legs       []float64
	burstLat   float64 // p99 burst-tail floor (backlog or swap window)
}

// est carries the elapsed-independent workload/platform statistics.
type est struct {
	cfg *config.Config
	w   config.Workload

	nWarps, totalInstr    float64
	memOps, loads, stores float64
	nPages, linesPerPage  int
	pages                 *zipfDist
	distinctLines         float64

	h1, l2Local    float64
	l1Rate, l2Rate float64
	missP1         float64
	m1Misses       float64
	m2Misses       float64
	wbacks         float64
	rdReqs, wrReqs float64

	mcs                 int
	unitB, slot, serdes float64
	demux, memTune      float64
	optical             bool

	cycle, icL, l1L, l2L float64
	dLat, dLatHit        float64
	xpR, xpW             float64
	pageB, lineB         float64
	rowsPerPage          float64
	runLen               float64
}

func newEst(cfg *config.Config, w config.Workload) *est {
	e := &est{cfg: cfg, w: w}
	g := &cfg.GPU

	e.nWarps = float64(g.SMs * g.WarpsPerSM)
	e.totalInstr = e.nWarps * float64(cfg.MaxInstructions)
	memProb := float64(w.APKI) / 1000
	if memProb > 0.95 {
		memProb = 0.95
	}
	e.memOps = e.totalInstr * memProb
	e.loads = e.memOps * w.ReadRatio
	e.stores = e.memOps - e.loads

	e.pageB = float64(cfg.Memory.PageBytes)
	e.lineB = float64(g.LineBytes)
	footprint := w.FootprintScale * config.FootprintUnit
	if footprint < e.pageB {
		footprint = e.pageB
	}
	e.nPages = int(footprint / e.pageB)
	if e.nPages < 1 {
		e.nPages = 1
	}
	e.linesPerPage = cfg.Memory.PageBytes / g.LineBytes
	if e.linesPerPage < 1 {
		e.linesPerPage = 1
	}
	e.pages = cachedZipfDist(w.HotSkew, e.nPages)
	lpp := float64(e.linesPerPage)
	e.distinctLines = e.pages.distinct(e.memOps, lpp)

	// Cache hierarchy: per-SM L1 via Che over the SM's share of the stream,
	// then the shared L2's local rate from the stack property at the
	// combined capacity (an L2 hit is a reference whose reuse distance
	// exceeds L1 but fits L1+L2).
	c1 := float64(g.L1SizeBytes / g.LineBytes)
	c2 := float64(g.L2SizeBytes / g.LineBytes)
	smStream := e.memOps / float64(g.SMs)
	t1 := e.pages.cheT(c1, smStream, lpp)
	e.h1 = e.pages.hitT(t1, smStream, lpp)
	c12 := float64(g.SMs)*c1 + c2
	t12 := e.pages.cheT(c12, e.memOps, lpp)
	h12 := e.pages.hitT(t12, e.memOps, lpp)
	if h12 < e.h1 {
		h12 = e.h1
	}
	e.l2Local = 0
	if e.h1 < 1 {
		e.l2Local = (h12 - e.h1) / (1 - e.h1)
	}
	if e.l2Local > 1 {
		e.l2Local = 1
	}
	e.m1Misses = e.memOps * (1 - e.h1)
	e.m2Misses = e.memOps * (1 - h12)
	e.missP1 = e.pages.missTopShare(t12, e.memOps, lpp)

	// Reported hit-rate mirrors: the DES L2 counter also sees L1 dirty
	// victims written back functionally; they hit while their line is still
	// L2-resident (reuse distance ≈ one L1 lifetime vs the L2 window).
	e.l1Rate = e.h1
	vw := e.m1Misses * (1 - w.ReadRatio)
	pVic := 1.0
	if t1 > 0 && t12 < t1*float64(g.SMs) {
		pVic = t12 / (t1 * float64(g.SMs))
	}
	if e.m1Misses+vw > 0 {
		e.l2Rate = (e.l2Local*e.m1Misses + vw*pVic) / (e.m1Misses + vw)
	}

	// Memory traffic: every L2 miss (load or store) issues a memory
	// request; evicted dirty L2 victims add background writes.
	refsPerLine := 1.0
	if e.distinctLines > 0 {
		refsPerLine = e.memOps / e.distinctLines
		if refsPerLine > 8 {
			refsPerLine = 8
		}
		if refsPerLine < 1 {
			refsPerLine = 1
		}
	}
	dirty2 := 1 - math.Pow(w.ReadRatio, refsPerLine)
	evictions := e.m2Misses - c2
	if evictions < 0 {
		evictions = 0
	}
	e.wbacks = evictions * dirty2
	e.rdReqs = e.m2Misses * w.ReadRatio
	e.wrReqs = e.m2Misses * (1 - w.ReadRatio)

	// Channel geometry, mirroring the serialization math of the concrete
	// channel models (including their picosecond rounding of the word time).
	e.mcs = g.MemCtrls
	e.optical = cfg.Platform.Optical()
	if e.optical {
		oc := &cfg.Optical
		slotPs := math.Floor(float64(sim.FreqToPeriod(oc.FreqHz))*oc.BandwidthScale + 0.5)
		e.slot = slotPs * 1e-12
		e.unitB = float64(oc.ChannelBits) / float64(e.mcs) / 8 * float64(oc.Waveguides)
		e.serdes = oc.SerDesLatency.Seconds()
		e.demux = oc.DemuxSwitch.Seconds()
		e.memTune = oc.HCMRRTune.Seconds()
	} else {
		ec := &cfg.Electrical
		slotPs := math.Floor(float64(sim.FreqToPeriod(ec.FreqHz))*ec.BandwidthScale + 0.5)
		e.slot = slotPs * 1e-12
		e.unitB = float64(ec.LaneBits) / 8
	}

	e.cycle = sim.FreqToPeriod(g.CoreFreqHz).Seconds()
	e.icL = g.InterconnectL.Seconds()
	e.l1L = g.L1Latency.Seconds()
	e.l2L = g.L2Latency.Seconds()

	// DRAM mean latency from the workload's row locality: a warp's
	// sequential run keeps a row open for runLen lines, interleaving at the
	// controller erodes part of it.
	d := &cfg.DRAM
	burst := d.BurstNs.Seconds()
	seqRun := 8
	if w.Suite == "GraphBIG" {
		seqRun = 2
	}
	rl := expRunLen(seqRun, e.linesPerPage)
	e.runLen = rl
	rowHit := 0.0
	if rl > 1 {
		rowHit = (rl - 1) / rl * rowLocalitySurvival
	}
	tcl, trcd, trp := d.TCL.Seconds(), d.TRCD.Seconds(), d.TRP.Seconds()
	e.dLatHit = tcl + burst
	e.dLat = rowHit*(tcl) + (1-rowHit)*(trcd+tcl+rowConflictShare*trp) + burst
	rowB := float64(d.RowBytes)
	e.rowsPerPage = e.pageB / rowB
	if e.rowsPerPage < 1 {
		e.rowsPerPage = 1
	}
	if banks := float64(d.Banks); e.rowsPerPage > banks {
		e.rowsPerPage = banks
	}

	e.xpR = cfg.XPoint.ReadLatency.Seconds()
	e.xpW = cfg.XPoint.WriteLatency.Seconds()
	return e
}

// expRunLen is the expected sequential-run length: a run ends after seqRun
// lines or at the page boundary, whichever comes first, with a uniform
// start line — exactly the trace generator's process.
func expRunLen(seqRun, linesPerPage int) float64 {
	var s float64
	for u := 0; u < linesPerPage; u++ {
		r := seqRun
		if linesPerPage-u < r {
			r = linesPerPage - u
		}
		s += float64(r)
	}
	return s / float64(linesPerPage)
}

// serData is one data-route serialization (one VC/lane, one direction).
func (e *est) serData(n float64) float64 {
	t := n / e.unitB * e.slot
	if t < e.slot {
		t = e.slot
	}
	return t + e.serdes
}

// serMemRoute is one memory-route serialization (dual-route platforms).
func (e *est) serMemRoute(n float64, wom bool) float64 {
	t := n / e.unitB * e.slot
	if t < e.slot {
		t = e.slot
	}
	if wom {
		t *= optical.Overhead
	}
	return t + e.memTune
}

// queueWait is the mean M/D/1-style queueing delay for a pool of servers
// with the given total busy time and mean service time over the elapsed
// window; utilization is capped so the latency model stays finite while
// the throughput legs own saturated regimes.
func queueWait(busy, servers, service, elapsed float64) float64 {
	if busy <= 0 || servers <= 0 || elapsed <= 0 || service <= 0 {
		return 0
	}
	rho := busy / (servers * elapsed)
	if rho > utilizationCap {
		rho = utilizationCap
	}
	return rho / (1 - rho) * service / 2
}

// inflate is a capped 1/(1-rho) service-time inflation for always-busy
// media (XPoint partitions).
func inflate(busy, servers, elapsed float64) float64 {
	if busy <= 0 || servers <= 0 || elapsed <= 0 {
		return 1
	}
	rho := busy / (servers * elapsed)
	if rho > utilizationCap {
		rho = utilizationCap
	}
	f := 1 / (1 - rho)
	if f > xpInflateCap {
		f = xpInflateCap
	}
	return f
}

// littleConc is the average outstanding-request population of a saturated
// memory system: each warp parks about one blocked load at the bottleneck,
// while its fire-and-forget stores pile up behind it in proportion to
// their share of the request mix.
func (e *est) littleConc() float64 {
	allReqs := e.rdReqs + e.wrReqs + e.wbacks
	wrShare := 0.0
	if allReqs > 0 {
		wrShare = (e.wrReqs + e.wbacks) / allReqs
	}
	return e.nWarps * (littleLoadConc + littleStoreConc*wrShare)
}

// hotVCShare is the busiest virtual channel's share of channel traffic:
// pages interleave across MCs, so the hottest page pins its whole mass on
// one VC while the rest spreads uniformly. The concentration the channel
// actually sees is the raw Zipf mass filtered through the on-chip caches
// (hot pages mostly hit in L2), blended by hotFilterBlend.
func (e *est) hotVCShare() float64 {
	u := 1 / float64(e.mcs)
	p := e.missP1 + hotFilterBlend*(e.pages.p1-e.missP1)
	return u + (1-u)*p
}

// demandReqs returns the per-pass demand read/write request counts. MSHR
// coalescing (off by default) merges concurrent load misses to one line.
func (e *est) demandReqs(elapsed float64) (reads, writes float64) {
	reads = e.rdReqs
	writes = e.wrReqs + e.wbacks
	if m := e.cfg.GPU.MSHREntries; m > 0 && elapsed > 0 {
		// In-flight misses form a window over the line popularity
		// distribution: a new miss whose line is already in flight merges.
		inflight := e.rdReqs / elapsed * (e.icL + e.l2L + 300e-9)
		if inflight > float64(m) {
			inflight = float64(m)
		}
		merge := e.pages.hitT(inflight, e.memOps, float64(e.linesPerPage))
		reads *= 1 - merge
	}
	return reads, writes
}

// pass evaluates the platform model for one fixed-point iteration.
func (e *est) pass(elapsed float64) passOut {
	var o passOut
	switch {
	case e.cfg.Platform == config.Origin:
		e.passOrigin(elapsed, &o)
	case e.cfg.Platform.Heterogeneous() && e.cfg.Mode == config.TwoLevel:
		e.passTwoLevel(elapsed, &o)
	case e.cfg.Platform.Heterogeneous():
		e.passPlanar(elapsed, &o)
	default:
		e.passFlat(elapsed, &o)
	}
	return o
}

// dramLegs appends the DRAM bank occupancy bounds: total bank-seconds
// across the pool, and the hottest page's bank serialization.
func (e *est) dramLegs(o *passOut, elapsed float64) {
	banks := float64(e.mcs * e.cfg.DRAM.Banks)
	o.legs = append(o.legs, o.dramDevBusy/banks)
	hot := e.pages.p1 * (o.dramReads + o.dramWrites) * e.dLatHit / e.rowsPerPage
	o.legs = append(o.legs, hot)
}

// hotBankWait is the queueing delay the hottest page's bank adds to the
// mean DRAM path, weighted by the probability of hitting that page.
func (e *est) hotBankWait(dramOps, elapsed float64) float64 {
	hotBusy := e.pages.p1 * dramOps * e.dLatHit / e.rowsPerPage
	return e.pages.p1 * queueWait(hotBusy, 1, e.dLatHit, elapsed)
}

// passFlat models Oracle: flat DRAM of sufficient capacity.
func (e *est) passFlat(elapsed float64, o *passOut) {
	reads, writes := e.demandReqs(elapsed)
	o.memReqs = reads + writes
	serCmd, serLine, serCmdLine := e.serData(cmdB), e.serData(e.lineB), e.serData(cmdB+e.lineB)

	o.busyFwdReg = reads*serCmd + writes*serCmdLine
	o.busyBwdReg = reads * serLine
	o.regBytes = (reads + writes) * (cmdB + e.lineB)
	o.dramReads, o.dramWrites = reads, writes
	o.dramDevBusy = (reads + writes) * e.dLat

	fw := queueWait(o.busyFwdReg, float64(e.mcs), o.busyFwdReg/math.Max(reads+writes, 1), elapsed)
	bw := queueWait(o.busyBwdReg, float64(e.mcs), serLine, elapsed)
	dWait := e.hotBankWait(reads+writes, elapsed)
	rdLat := serCmd + fw + e.dLat + dWait + serLine + bw
	wrLat := serCmdLine + fw + e.dLat + dWait
	o.paths = append(o.paths, path{reads, rdLat}, path{writes, wrLat})
	o.loadMemLat = rdLat
	e.dramLegs(o, elapsed)
}

// passOrigin models the DRAM-only small-capacity baseline: requests to
// pages outside the FIFO-resident set stage the page over the PCIe host
// link (one shared DMA engine) before the DRAM access.
func (e *est) passOrigin(elapsed float64, o *passOut) {
	reads, writes := e.demandReqs(elapsed)
	o.memReqs = reads + writes
	reqs := reads + writes
	serCmd, serLine, serCmdLine := e.serData(cmdB), e.serData(e.lineB), e.serData(cmdB+e.lineB)

	resCap := float64(e.cfg.Memory.DRAMBytes) / e.pageB
	if resCap < 1 {
		resCap = 1
	}
	// One staging serves a page *visit*, not a request: the trace walks
	// ~runLen consecutive lines per draw, so the dense kernels send deep
	// same-page bursts to the MC that all ride the first request's
	// staging. The residency stream the FIFO set actually sees is the
	// visit stream (capped by the request count — the pointer-chasing
	// suite decays to one request per visit after the caches filter it).
	visits := e.memOps / e.runLen
	if visits > reqs {
		visits = reqs
	}
	hVis := e.pages.fifoHit(resCap, visits, 1)
	stages := visits * (1 - hVis)
	hRes := 1.0
	if reqs > 0 {
		hRes = 1 - stages/reqs
	}

	wire := e.pageB / hostBytesPerSec
	o.dmaBusy = stages * wire
	dmaWait := queueWait(o.dmaBusy, 1, wire, elapsed)
	stageLat := dmaWait + wire + hostSetup

	o.hostStages = stages
	o.hostBytes = stages * e.pageB
	if stages > 0 {
		// A staged request can sit behind the whole outstanding population
		// queued on the single DMA engine: loads close the loop at ~one per
		// warp, while fire-and-forget stores deepen the backlog.
		o.burstLat = e.littleConc() * wire
	}
	o.hostTime = stages * stageLat
	o.dmaEnergyPJ = stages * e.pageB * 8 * 3

	o.busyFwdReg = reads*serCmd + writes*serCmdLine
	o.busyBwdReg = reads * serLine
	o.regBytes = reqs * (cmdB + e.lineB)
	o.dramReads, o.dramWrites = reads, writes
	o.dramDevBusy = reqs * e.dLat

	fw := queueWait(o.busyFwdReg, float64(e.mcs), o.busyFwdReg/math.Max(reqs, 1), elapsed)
	bw := queueWait(o.busyBwdReg, float64(e.mcs), serLine, elapsed)
	dWait := e.hotBankWait(reqs, elapsed)
	rdLat := serCmd + fw + e.dLat + dWait + serLine + bw
	wrLat := serCmdLine + fw + e.dLat + dWait
	o.paths = append(o.paths,
		path{reads * hRes, rdLat},
		path{reads * (1 - hRes), stageLat + rdLat},
		path{writes * hRes, wrLat},
		path{writes * (1 - hRes), stageLat + wrLat})
	o.loadMemLat = hRes*rdLat + (1-hRes)*(stageLat+rdLat)
	o.legs = append(o.legs, o.dmaBusy)
	e.dramLegs(o, elapsed)
}

// passPlanar models the planar heterogeneous platforms: kernel pages start
// in XPoint; pages whose access count trips the hot threshold swap into
// their group's DRAM slot, serialized per controller by the swap protocol.
func (e *est) passPlanar(elapsed float64, o *passOut) {
	cfg := e.cfg
	reads, writes := e.demandReqs(elapsed)
	o.memReqs = reads + writes
	reqs := reads + writes
	serCmd, serLine, serCmdLine := e.serData(cmdB), e.serData(e.lineB), e.serData(cmdB+e.lineB)
	serPage := e.serData(e.pageB)
	kind := cfg.Platform

	// Swap cost on the critical path of one migration (the per-MC swap
	// serialization window).
	var swapCost float64
	wom := kind == config.OhmWOM
	switch kind {
	case config.Hetero, config.OhmBase:
		swapCost = 2*e.dLat + 4*serPage + e.xpW + e.xpR
	case config.AutoRW:
		swapCost = 2*e.dLat + 3*serPage + e.xpW + e.xpR
	default: // Ohm-WOM / Ohm-BW: SWAP-CMD + two memory-route page moves
		swapCost = serCmd + e.cfg.DRAM.TRCD.Seconds() +
			2*e.serMemRoute(e.pageB, wom) + e.xpW + e.xpR + e.dLat
	}
	maxSwaps := float64(e.mcs) * elapsed / swapCost
	slots := float64(cfg.Memory.DRAMBytes) / e.pageB
	if maxSwaps > slots {
		maxSwaps = slots
	}
	thresh := float64(cfg.Memory.HotThreshold)
	swaps, dFrac := e.pages.dramResidency(maxSwaps, reqs, thresh)

	o.migrations = swaps
	o.migratedBytes = swaps * 2 * e.pageB
	// On the single-route platforms swap pages ride the data route and a
	// line request can get stuck mid-way behind one swap window.
	if swaps > 0 && kind != config.OhmWOM && kind != config.OhmBW {
		o.burstLat = swapCost / 2
	}

	// Demand traffic (read: cmd forward, line back; write: cmd+line
	// forward) is identical whichever device serves it.
	o.busyFwdReg = reads*serCmd + writes*serCmdLine
	o.busyBwdReg = reads * serLine
	o.regBytes = reqs * (cmdB + e.lineB)

	// Swap channel traffic per migration kind.
	serMemPage := e.serMemRoute(e.pageB, wom)
	switch kind {
	case config.Hetero, config.OhmBase:
		o.busyFwdCopy = swaps * 2 * serPage
		o.busyBwdCopy = swaps * 2 * serPage
		o.copyBytes = swaps * 4 * e.pageB
	case config.AutoRW:
		o.busyFwdCopy = swaps * serPage
		o.busyBwdCopy = swaps * 2 * serPage
		o.copyBytes = swaps * 3 * e.pageB
		o.snarfBytes = swaps * e.pageB
	default: // Ohm-WOM / Ohm-BW
		o.busyFwdCopy = swaps * serCmd
		o.busyMem = swaps * 2 * serMemPage
		o.copyBytes = swaps * (cmdB + 2*e.pageB)
		o.dualBytes = swaps * 2 * e.pageB
	}

	// WOM code expansion taxes forward requests while a swap shares the
	// light.
	womFrac := 0.0
	if wom && elapsed > 0 {
		womFrac = swaps * 2 * serMemPage / (float64(e.mcs) * elapsed)
		if womFrac > 1 {
			womFrac = 1
		}
		o.busyFwdReg *= 1 + (optical.Overhead-1)*womFrac
	}

	// Demux retuning when DRAM- and XPoint-bound transfers alternate on a
	// VC (occupancy only; 100 ps is invisible next to the latency paths).
	if e.optical {
		pSwitch := 2 * dFrac * (1 - dFrac)
		o.busyFwdReg += reqs * pSwitch * e.demux
		o.busyBwdReg += reads * pSwitch * e.demux
	}

	// Device op counts: demand split by residency plus one of each per swap.
	o.dramReads = reads*dFrac + swaps
	o.dramWrites = writes*dFrac + swaps
	o.xpReads = reads*(1-dFrac) + swaps
	o.xpWrites = writes*(1-dFrac) + swaps
	o.dramDevBusy = (reads+writes)*dFrac*e.dLat + swaps*2*e.dLat
	o.xpDevBusy = o.xpReads*e.xpR + o.xpWrites*e.xpW

	parts := float64(e.mcs * cfg.XPoint.Partitions)
	xpRQ := e.xpR * inflate(o.xpDevBusy, parts, elapsed)

	fwBusy := o.busyFwdReg + o.busyFwdCopy
	fw := queueWait(fwBusy, float64(e.mcs), fwBusy/math.Max(reqs+4*swaps, 1), elapsed)
	if wom {
		fw += (optical.Overhead - 1) * womFrac * serCmd
	}
	bw := queueWait(o.busyBwdReg+o.busyBwdCopy, float64(e.mcs), serLine, elapsed)
	dWait := e.hotBankWait((reads+writes)*dFrac, elapsed)

	dramR := serCmd + fw + e.dLat + dWait + serLine + bw
	dramW := serCmdLine + fw + e.dLat + dWait
	xpRead := serCmd + fw + xpRQ + serLine + bw
	// XPoint writes acknowledge at write-buffer admission; the media drain
	// is background (known-bad when the 64-entry buffer saturates).
	xpWrite := serCmdLine + fw

	o.paths = append(o.paths,
		path{reads * dFrac, dramR},
		path{reads * (1 - dFrac), xpRead},
		path{writes * dFrac, dramW},
		path{writes * (1 - dFrac), xpWrite})
	o.loadMemLat = dFrac*dramR + (1-dFrac)*xpRead
	o.legs = append(o.legs, swaps*swapCost/float64(e.mcs), o.xpDevBusy/parts)
	e.dramLegs(o, elapsed)
}

// passTwoLevel models the two-level mode: DRAM as a direct-mapped inclusive
// cache of the XPoint space with tags in the ECC bits.
func (e *est) passTwoLevel(elapsed float64, o *passOut) {
	cfg := e.cfg
	reads, writes := e.demandReqs(elapsed)
	o.memReqs = reads + writes
	reqs := reads + writes
	serCmd, serLine, serCmdLine := e.serData(cmdB), e.serData(e.lineB), e.serData(cmdB+e.lineB)
	kind := cfg.Platform
	lpp := float64(e.linesPerPage)

	sets := float64(cfg.Memory.DRAMBytes) / e.lineB
	hDC := e.pages.hit(sets*directMapFactor, reqs, lpp)
	miss := reqs * (1 - hDC)
	hits := reqs - miss

	rdShare := 0.0
	if reqs > 0 {
		rdShare = reads / reqs
	}

	// Channel traffic: hits look like flat DRAM accesses; every miss does
	// a tag read (cmd fwd + line back) and a demand line from XPoint.
	o.busyFwdReg = hits*(rdShare*serCmd+(1-rdShare)*serCmdLine) + miss*serCmd
	o.busyBwdReg = hits*rdShare*serLine + miss*2*serLine
	o.regBytes = hits*(cmdB+e.lineB) + miss*(cmdB+2*e.lineB)

	// Dirty victims drain through the controller's write buffer without
	// crossing the channel or reaching XPoint media within the run (the
	// kernel's counters show ≈0 XPoint writes in two-level mode), so only
	// the fill transfer shows up as copy traffic.
	wom := kind == config.OhmWOM
	serMemLine := e.serMemRoute(e.lineB, wom)
	switch kind {
	case config.Hetero, config.OhmBase, config.AutoRW:
		// The fill line crosses the data route.
		o.busyFwdCopy = miss * serCmdLine
		o.copyBytes = miss * (cmdB + e.lineB)
	default: // Ohm-WOM / Ohm-BW: reverse-write fill on the memory route
		o.busyMem = miss * serMemLine
		o.copyBytes = miss * e.lineB
		o.dualBytes = miss * e.lineB
	}

	womFrac := 0.0
	if wom && elapsed > 0 {
		womFrac = miss * serMemLine / (float64(e.mcs) * elapsed)
		if womFrac > 1 {
			womFrac = 1
		}
		o.busyFwdReg *= 1 + (optical.Overhead-1)*womFrac
	}
	if e.optical {
		pSwitch := 2 * (1 - hDC) * hDC
		o.busyFwdReg += reqs * pSwitch * e.demux
		o.busyBwdReg += reqs * pSwitch * e.demux
	}

	o.migrations = miss
	o.migratedBytes = miss * e.lineB
	o.dramReads = hits*rdShare + miss
	o.dramWrites = hits*(1-rdShare) + miss
	o.xpReads = miss
	o.xpWrites = 0
	o.dramDevBusy = (o.dramReads + o.dramWrites) * e.dLat
	o.xpDevBusy = o.xpReads*e.xpR + o.xpWrites*e.xpW

	parts := float64(e.mcs * cfg.XPoint.Partitions)
	xpRQ := e.xpR * inflate(o.xpDevBusy, parts, elapsed)

	fwBusy := o.busyFwdReg + o.busyFwdCopy
	fw := queueWait(fwBusy, float64(e.mcs), fwBusy/math.Max(reqs+miss, 1), elapsed)
	bw := queueWait(o.busyBwdReg, float64(e.mcs), serLine, elapsed)
	dWait := e.hotBankWait(o.dramReads+o.dramWrites, elapsed)

	hitR := serCmd + fw + e.dLat + dWait + serLine + bw
	hitW := serCmdLine + fw + e.dLat + dWait
	missLat := serCmd + fw + e.dLat + dWait + serLine + bw + xpRQ + serLine + bw
	if kind == config.Hetero || kind == config.OhmBase {
		// The request completes only when the fill lands in DRAM.
		missLat += serCmdLine + fw + e.dLat
	}

	o.paths = append(o.paths,
		path{hits * rdShare, hitR},
		path{hits * (1 - rdShare), hitW},
		path{miss, missLat})
	o.loadMemLat = hDC*hitR + (1-hDC)*missLat
	o.legs = append(o.legs, o.xpDevBusy/parts)
	e.dramLegs(o, elapsed)
}

// report runs the fixed point over elapsed and assembles the final report.
func (e *est) report() stats.Report {
	g := &e.cfg.GPU
	tIssue := float64(g.WarpsPerSM) * float64(e.cfg.MaxInstructions) * e.cycle

	elapsed := tIssue
	var o passOut
	for i := 0; i < 4; i++ {
		o = e.pass(elapsed)

		loadLat := e.h1*e.l1L + (1-e.h1)*(e.l1L+e.icL+e.l2L+e.icL+(1-e.l2Local)*o.loadMemLat)
		tLat := float64(e.cfg.MaxInstructions)*e.cycle +
			e.loads/e.nWarps*loadLat + e.stores/e.nWarps*e.l1L

		hot := e.hotVCShare()
		next := math.Max(tIssue, tLat)
		next = math.Max(next, (o.busyFwdReg+o.busyFwdCopy)*hot)
		next = math.Max(next, (o.busyBwdReg+o.busyBwdCopy)*hot)
		next = math.Max(next, o.busyMem*hot)
		for _, leg := range o.legs {
			next = math.Max(next, leg)
		}
		if math.Abs(next-elapsed) <= 1e-3*elapsed {
			elapsed = next
			break
		}
		elapsed = next
	}

	// Latency mixture → mean and the DES log-bucket p99 upper bound.
	var wSum, latSum float64
	for _, p := range o.paths {
		wSum += p.w
		latSum += p.w * p.lat
	}
	meanLat := 0.0
	if wSum > 0 {
		meanLat = latSum / wSum
	}
	// Saturated memory systems queue far deeper than the capped M/D/1 path
	// waits admit: by Little's law the mean request latency is the average
	// outstanding population times elapsed over the request count. Warps
	// block on loads (≈ one parked load each) while stores are fire-and-
	// forget and pile up behind the bottleneck; the floor only engages to
	// the extent the run is memory-bound (elapsed beyond the issue bound).
	satFrac := 0.0
	if elapsed > tIssue {
		satFrac = 1 - tIssue/elapsed
	}
	if o.memReqs > 0 && satFrac > 0 {
		if floor := satFrac * e.littleConc() * elapsed / o.memReqs; meanLat < floor {
			meanLat = floor
		}
	}
	sort.Slice(o.paths, func(i, j int) bool { return o.paths[i].lat < o.paths[j].lat })
	p99 := 0.0
	cum := 0.0
	for _, p := range o.paths {
		cum += p.w
		p99 = p.lat
		if cum >= 0.99*wSum {
			break
		}
	}
	// Tail floors: ordinary mixtures tail at a few× the mean, and a request
	// can get stuck behind the platform's page-burst window.
	if tail := tailBase * meanLat; p99 < tail {
		p99 = tail
	}
	if o.burstLat > 0 && p99 < o.burstLat {
		p99 = o.burstLat
	}

	sec := elapsed
	rep := stats.Report{
		Elapsed:      sim.Time(sec*1e12 + 0.5),
		IPC:          e.totalInstr / (sec * g.CoreFreqHz),
		MeanLatency:  sim.Time(meanLat*1e12 + 0.5),
		P99Latency:   p99Bucket(p99),
		Instructions: uint64(e.totalInstr + 0.5),
		MemRequests:  uint64(o.memReqs + 0.5),
		Migrations:   uint64(o.migrations + 0.5),
		RegularBytes: uint64(o.regBytes + 0.5),
		CopyBytes:    uint64(o.copyBytes + o.dualBytes + 0.5),
		EnergyPJ:     make(map[string]float64, 6),
		Extra:        make(map[string]float64, 4+len(errorBars)),
	}
	busyReg := o.busyFwdReg + o.busyBwdReg
	busyCopy := o.busyFwdCopy + o.busyBwdCopy
	if busyReg+busyCopy > 0 {
		rep.CopyFraction = busyCopy / (busyReg + busyCopy)
	}

	// Energy: energy.Model's coefficients and the optical power model's
	// laser term, plus the channel-incremental terms the concrete channels
	// accumulate.
	em := energy.Default()
	dramGB := float64(e.cfg.Memory.DRAMBytes) / float64(1<<30)
	rep.EnergyPJ["dram-static"] = em.DRAMStaticMWPerGB * dramGB * sec * 1e9
	rep.EnergyPJ["dram-dynamic"] = (o.dramReads + o.dramWrites) * em.DRAMDynamicPJPerAccess
	if e.cfg.Platform.Heterogeneous() {
		rep.EnergyPJ["xpoint"] = o.xpReads*em.XPointReadPJ + o.xpWrites*em.XPointWritePJ
	}
	allBytes := o.regBytes + o.copyBytes + o.dualBytes
	if e.optical {
		laserMW := optical.NewPowerModel(e.cfg.Optical, e.mcs).LaserPowerMW()
		rep.EnergyPJ["opti-network"] = laserMW*sec*1e9 +
			allBytes*8*e.cfg.Optical.MRRTuningFJPerBit/1000
	} else {
		rep.EnergyPJ["elec-channel"] = allBytes * 8 * e.cfg.Electrical.PJPerBit
	}
	if o.dmaEnergyPJ > 0 {
		rep.EnergyPJ["dma"] = o.dmaEnergyPJ
	}

	rep.Extra["l1-hit-rate"] = e.l1Rate
	rep.Extra["l2-hit-rate"] = e.l2Rate
	rep.Extra["twin:model-version"] = modelVersionNum
	for k, v := range errorBars {
		rep.Extra["twin:mape:"+k] = v
	}
	return rep
}

// p99Bucket mirrors stats.LatencyDist's log-histogram percentile: a sample
// of n nanoseconds lands in bucket bitlen(n), reported as its upper bound.
func p99Bucket(sec float64) sim.Time {
	ns := uint64(sec * 1e9)
	b := bits.Len64(ns)
	return sim.Time(uint64(1)<<uint(b)) * sim.Nanosecond
}

// HitRates exposes the twin's L1/L2 hit-rate estimates for a configuration
// and workload — the quantities mirrored into Extra["l1-hit-rate"] and
// Extra["l2-hit-rate"] — for the calibration edge tests.
func HitRates(cfg *config.Config, w config.Workload) (l1, l2 float64) {
	e := newEst(cfg, w)
	return e.l1Rate, e.l2Rate
}
