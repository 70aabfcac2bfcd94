// Package xpoint models a 3D XPoint memory device together with its
// logic-layer controller (Section III-A, Figure 6c). The controller
// implements what the paper describes: read and persistent-write buffers
// that decouple the asynchronous DDR-T protocol from the memory channel,
// Start-Gap wear-levelling ([55]) instead of a DRAM-resident mapping table,
// address translation, and the new migration functions — auto-read/write
// (snarf), swap (DDR sequence generator), and reverse-write — whose channel
// scheduling lives in the heterogeneous memory controller.
package xpoint

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Device is the raw XPoint storage array. Internal partitions provide
// limited parallelism; each partitioned access pays the Table I read or
// write latency. Partitions are gap-filled so an arbitrated migration
// operation at a future instant does not block demand in between.
type Device struct {
	cfg        config.XPointConfig
	lineBytes  int
	partitions []*sim.GapResource

	Reads  uint64
	Writes uint64
}

// NewDevice builds a device; partitions is the internal parallelism (a
// device property, 8 matches contemporary Optane-class media).
func NewDevice(cfg config.XPointConfig, lineBytes, partitions int) *Device {
	return newDeviceIn(nil, new(sim.Pools), cfg, lineBytes, partitions)
}

// newDeviceIn is NewDevice rebuilding into a recycled device; re may be
// nil, so fresh and pooled construction share one code path.
func newDeviceIn(re *Device, pools *sim.Pools, cfg config.XPointConfig, lineBytes, partitions int) *Device {
	if partitions <= 0 {
		partitions = 1
	}
	if re == nil {
		re = &Device{}
	}
	parts := re.partitions
	if cap(parts) < partitions {
		parts = make([]*sim.GapResource, partitions)
	} else {
		parts = parts[:partitions]
	}
	*re = Device{cfg: cfg, lineBytes: lineBytes, partitions: parts}
	for i := range parts {
		parts[i] = pools.GapResource()
	}
	return re
}

func (d *Device) partition(addr uint64) int {
	// Mix high bits into the partition index: page-aligned operations
	// (migrations) would otherwise all land on partition 0 and serialize.
	idx := addr / uint64(d.lineBytes)
	idx ^= idx >> 5
	idx ^= idx >> 11
	return int(idx % uint64(len(d.partitions)))
}

// Read performs a media read whose command arrives at time at; it returns
// when data is available at the device interface.
func (d *Device) Read(at sim.Time, addr uint64) sim.Time {
	p := d.partition(addr)
	_, done := d.partitions[p].Reserve(at, d.cfg.ReadLatency)
	d.Reads++
	return done
}

// Write performs a media write; it returns when the cell array has
// persisted the line.
func (d *Device) Write(at sim.Time, addr uint64) sim.Time {
	p := d.partition(addr)
	_, done := d.partitions[p].Reserve(at, d.cfg.WriteLatency)
	d.Writes++
	return done
}

// StartGap implements the Start-Gap wear-levelling scheme [55]: N logical
// lines map onto N+1 physical lines with a roaming gap. Every K writes the
// gap moves one slot, slowly rotating the mapping so hot lines spread over
// the physical array. This removes the DRAM-resident mapping table a
// page-table-based scheme would need (Section III-A).
type StartGap struct {
	n     int64 // logical lines
	gap   int64 // physical index of the unused line
	start int64 // rotation offset
	k     int   // writes per gap movement
	count int   // writes since last movement

	GapMoves uint64
}

// NewStartGap builds the mapper for n logical lines, moving the gap every k
// writes. n must be positive; k <= 0 disables movement (degenerates to a
// static layout, useful as an ablation baseline).
func NewStartGap(n int64, k int) *StartGap {
	if n <= 0 {
		panic(fmt.Sprintf("xpoint: StartGap with non-positive lines %d", n))
	}
	return &StartGap{n: n, gap: n, k: k}
}

// Translate maps a logical line index to its physical line index using the
// canonical Start-Gap formula [55]: rotate by start over the n logical
// slots, then skip the gap.
func (s *StartGap) Translate(logical int64) int64 {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("xpoint: logical line %d out of [0,%d)", logical, s.n))
	}
	p := (logical + s.start) % s.n
	if p >= s.gap {
		p++
	}
	return p
}

// OnWrite advances the wear-levelling state machine after one line write
// and reports whether the gap moved (the move itself costs one internal
// line copy, which the controller charges as an extra device write).
func (s *StartGap) OnWrite() (moved bool) {
	if s.k <= 0 {
		return false
	}
	s.count++
	if s.count < s.k {
		return false
	}
	s.count = 0
	s.GapMoves++
	s.gap--
	if s.gap < 0 {
		s.gap = s.n
		s.start = (s.start + 1) % s.n
	}
	return true
}

// pendingWrite tracks one entry draining from the persistent write buffer.
type pendingWrite struct {
	done sim.Time
}

// Controller is the XPoint logic-layer controller.
type Controller struct {
	cfg       config.XPointConfig
	dev       *Device
	sg        *StartGap
	lineBytes int

	// Persistent write buffer: entries admitted immediately if a slot is
	// free; otherwise the DDR-T ack stalls until the earliest drain.
	writeBuf []pendingWrite
	// Read buffer simply bounds outstanding reads.
	readBuf []pendingWrite

	wear []uint32 // per-physical-line write counts (uint32 bounds memory at scale)

	// wearTouched journals the distinct physical lines written this run, so
	// a pooled rebuild zeroes O(touched lines) instead of the whole wear
	// array — by far the largest allocation in a cell, and writes touch a
	// small fraction of it. When the journal would exceed an eighth of the
	// array, wearFull switches the rebuild to one full clear instead.
	// Invariant: every non-zero wear entry is journaled or wearFull is set,
	// so after the rebuild's clearing step the backing array is all zero.
	wearTouched []int64
	wearFull    bool

	BufferedWrites uint64
	StalledWrites  uint64
	SnarfedBytes   uint64
	SwapOps        uint64
	ReverseWrites  uint64
}

// NewController assembles a controller over capacityBytes of media.
func NewController(cfg config.XPointConfig, capacityBytes int64, lineBytes int) *Controller {
	return NewControllerIn(nil, new(sim.Pools), cfg, capacityBytes, lineBytes)
}

// NewControllerIn is NewController rebuilding into a recycled controller:
// the wear array, write/read buffers, device partitions and Start-Gap state
// are reinitialized in place. The recycled wear array is scrubbed through
// the wearTouched journal rather than wholesale, so reuse costs time
// proportional to the previous run's writes, not the media capacity. re may
// be nil; NewController is exactly NewControllerIn(nil, new(sim.Pools), ...).
func NewControllerIn(re *Controller, pools *sim.Pools, cfg config.XPointConfig, capacityBytes int64, lineBytes int) *Controller {
	lines := capacityBytes / int64(lineBytes)
	if lines < 1 {
		lines = 1
	}
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 8
	}
	if re == nil {
		re = &Controller{}
	}
	// Scrub the retained wear array to all-zero (see the wearTouched
	// invariant), then resize it within capacity when possible.
	wear := re.wear
	if re.wearFull {
		clear(wear)
	} else {
		for _, p := range re.wearTouched {
			wear[p] = 0
		}
	}
	need := int(lines + 1)
	if cap(wear) < need {
		wear = make([]uint32, need)
	} else {
		wear = wear[:need]
	}
	sg := re.sg
	if sg == nil {
		sg = NewStartGap(lines, cfg.StartGapK)
	} else {
		if lines <= 0 {
			panic(fmt.Sprintf("xpoint: StartGap with non-positive lines %d", lines))
		}
		*sg = StartGap{n: lines, gap: lines, k: cfg.StartGapK}
	}
	*re = Controller{
		cfg:         cfg,
		dev:         newDeviceIn(re.dev, pools, cfg, lineBytes, parts),
		sg:          sg,
		lineBytes:   lineBytes,
		wear:        wear,
		wearTouched: re.wearTouched[:0],
		writeBuf:    re.writeBuf[:0],
		readBuf:     re.readBuf[:0],
	}
	return re
}

// noteWear counts one write to a physical line, journaling its first touch
// for the pooled rebuild's scrub.
func (c *Controller) noteWear(pline int64) {
	if c.wear[pline] == 0 && !c.wearFull {
		if len(c.wearTouched) < len(c.wear)/8 {
			c.wearTouched = append(c.wearTouched, pline)
		} else {
			c.wearFull = true
			c.wearTouched = c.wearTouched[:0]
		}
	}
	c.wear[pline]++
}

// Gap exposes the wear-levelling state (for tests/ablation).
func (c *Controller) Gap() *StartGap { return c.sg }

func (c *Controller) logicalLine(addr uint64) int64 {
	l := int64(addr) / int64(c.lineBytes)
	n := c.sg.n
	if l >= n {
		l %= n
	}
	return l
}

func (c *Controller) physAddr(addr uint64) (uint64, int64) {
	p := c.sg.Translate(c.logicalLine(addr))
	return uint64(p) * uint64(c.lineBytes), p
}

// compact drops drained buffer entries (done <= at).
func compact(buf []pendingWrite, at sim.Time) []pendingWrite {
	out := buf[:0]
	for _, p := range buf {
		if p.done > at {
			out = append(out, p)
		}
	}
	return out
}

// earliest returns the earliest completion in buf; callers guarantee buf is
// non-empty.
func earliest(buf []pendingWrite) sim.Time {
	e := buf[0].done
	for _, p := range buf[1:] {
		if p.done < e {
			e = p.done
		}
	}
	return e
}

// Read issues a line read through the read buffer; it returns when data is
// ready at the controller (DDR-T would then schedule the channel transfer).
func (c *Controller) Read(at sim.Time, addr uint64) sim.Time {
	c.readBuf = compact(c.readBuf, at)
	start := at
	if len(c.readBuf) >= c.cfg.ReadBufEnt {
		start = earliest(c.readBuf)
		c.readBuf = compact(c.readBuf, start)
	}
	pa, _ := c.physAddr(addr)
	done := c.dev.Read(start, pa)
	c.readBuf = append(c.readBuf, pendingWrite{done: done})
	return done
}

// Write admits a line write into the persistent write buffer. The returned
// ack is when DDR-T acknowledges the command (slot admission), which is
// what the memory channel observes; the media write drains in background.
func (c *Controller) Write(at sim.Time, addr uint64) (ack sim.Time) {
	c.writeBuf = compact(c.writeBuf, at)
	ack = at
	if len(c.writeBuf) >= c.cfg.WriteBufEnt {
		ack = earliest(c.writeBuf)
		c.writeBuf = compact(c.writeBuf, ack)
		c.StalledWrites++
	}
	pa, pline := c.physAddr(addr)
	done := c.dev.Write(ack, pa)
	c.noteWear(pline)
	c.writeBuf = append(c.writeBuf, pendingWrite{done: done})
	c.BufferedWrites++
	if c.sg.OnWrite() {
		// Gap movement copies one line internally.
		gapAddr := uint64(c.sg.gap) * uint64(c.lineBytes)
		c.dev.Write(done, gapAddr)
	}
	return ack
}

// DrainedBy reports when all currently buffered writes have persisted.
func (c *Controller) DrainedBy(at sim.Time) sim.Time {
	latest := at
	for _, p := range c.writeBuf {
		if p.done > latest {
			latest = p.done
		}
	}
	return latest
}

// Snarf models the controller hooking command/address/data/ECC/tag off the
// optical channel while the memory controller talks to DRAM (Section IV-B,
// auto-read/write). It costs the controller nothing on the channel; the
// captured bytes are accounted for reporting.
func (c *Controller) Snarf(bytes uint64) {
	c.SnarfedBytes += bytes
}

// scheduledOp performs a media operation whose start instant was already
// arbitrated by the controller's conflict detection: it books exactly its
// own window without queueing.
func (c *Controller) scheduledOp(at sim.Time, pa uint64, write bool) sim.Time {
	p := c.dev.partition(pa)
	lat := c.cfg.ReadLatency
	if write {
		lat = c.cfg.WriteLatency
		c.dev.Writes++
	} else {
		c.dev.Reads++
	}
	_, done := c.dev.partitions[p].ReserveAt(at, lat)
	return done
}

// SwapWrite is the media half of the swap function: the DDR sequence
// generator has read the DRAM side; this persists the line into XPoint. It
// bypasses the write-buffer DDR-T ack path because the XPoint controller
// itself originates the transfer (Figure 11 steps 3-4).
func (c *Controller) SwapWrite(at sim.Time, addr uint64) sim.Time {
	pa, pline := c.physAddr(addr)
	done := c.scheduledOp(at, pa, true)
	c.noteWear(pline)
	c.SwapOps++
	if c.sg.OnWrite() {
		gapAddr := uint64(c.sg.gap) * uint64(c.lineBytes)
		c.scheduledOp(done, gapAddr, true)
	}
	return done
}

// MigrWrite persists a migration line write at an arbitrated instant.
func (c *Controller) MigrWrite(at sim.Time, addr uint64) sim.Time {
	pa, pline := c.physAddr(addr)
	c.noteWear(pline)
	return c.scheduledOp(at, pa, true)
}

// MigrRead fetches a migration line at an arbitrated instant.
func (c *Controller) MigrRead(at sim.Time, addr uint64) sim.Time {
	pa, _ := c.physAddr(addr)
	return c.scheduledOp(at, pa, false)
}

// ReverseRead is the media half of the reverse-write function: read a line
// from XPoint that the controller will push to DRAM over the memory route
// (Figure 12).
func (c *Controller) ReverseRead(at sim.Time, addr uint64) sim.Time {
	pa, _ := c.physAddr(addr)
	c.ReverseWrites++
	return c.scheduledOp(at, pa, false)
}

// WearStats summarises the physical wear distribution.
type WearStats struct {
	Max, Min, Total uint64
	Lines           int
}

// Wear computes the current wear statistics (Min over written lines only
// when any line is written; all-zero arrays report zeros).
func (c *Controller) Wear() WearStats {
	ws := WearStats{Lines: len(c.wear)}
	first := true
	for _, w32 := range c.wear {
		w := uint64(w32)
		ws.Total += w
		if w > ws.Max {
			ws.Max = w
		}
		if first || w < ws.Min {
			ws.Min = w
			first = false
		}
	}
	return ws
}

// ExceedsEndurance reports whether any line passed the endurance budget.
func (c *Controller) ExceedsEndurance() bool {
	return c.Wear().Max > c.cfg.WearLimit
}
