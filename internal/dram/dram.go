// Package dram models a DRAM memory device at bank / row-buffer granularity
// with the Table I timing parameters (tRCD, tRP, tCL, tRRD). The model is
// first-order but captures the effects the paper's design depends on: row
// hits vs. conflicts, bank-level parallelism, and the bank-state presetting
// (precharge + activate) the memory controller performs before issuing a
// SWAP-CMD (Section V-A, Figure 11).
//
// Banks are gap-filled resources: a migration operation scheduled for a
// future arbitrated instant occupies the bank only for its own window, so
// demand accesses use the idle time in between — which is what the paper's
// conflict-detection mechanism achieves in hardware.
package dram

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// bank tracks one bank's row-buffer state and occupancy.
type bank struct {
	openRow int64 // -1 when precharged (no open row)
	res     *sim.GapResource
}

// Device is one DRAM device on the memory channel.
type Device struct {
	cfg          config.DRAMConfig
	banks        []bank
	lastActivate sim.Time

	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64 // closed-row activations
	RowConfl  uint64 // conflicting-row precharge+activate
	Refreshes uint64 // accesses delayed by a refresh window
}

// New builds a device from the DRAM configuration.
func New(cfg config.DRAMConfig) *Device {
	return NewIn(nil, new(sim.Pools), cfg)
}

// NewIn is New rebuilding into a recycled device: the bank slice keeps its
// capacity and the per-bank gap resources come from pools. re may be nil
// (New is NewIn(nil, new(sim.Pools), cfg)), so fresh and pooled
// construction share one code path.
func NewIn(re *Device, pools *sim.Pools, cfg config.DRAMConfig) *Device {
	if re == nil {
		re = &Device{}
	}
	banks := re.banks
	if cap(banks) < cfg.Banks {
		banks = make([]bank, cfg.Banks)
	} else {
		banks = banks[:cfg.Banks]
	}
	*re = Device{cfg: cfg, banks: banks, lastActivate: -cfg.TRRD}
	for i := range banks {
		banks[i].openRow = -1
		banks[i].res = pools.GapResource()
	}
	return re
}

// decode splits a byte address into bank and row. Consecutive rows
// interleave across banks so streaming accesses exploit bank parallelism,
// matching GDDR-style address mapping.
func (d *Device) decode(addr uint64) (bankIdx int, row int64) {
	rowAddr := addr / uint64(d.cfg.RowBytes)
	return int(rowAddr % uint64(len(d.banks))), int64(rowAddr / uint64(len(d.banks)))
}

// latency computes the access latency from the bank's current row state and
// updates row-state counters.
func (d *Device) latency(b *bank, row int64, at sim.Time) sim.Time {
	switch {
	case b.openRow == row:
		d.RowHits++
		return d.cfg.TCL
	case b.openRow == -1:
		d.RowMisses++
		return d.activateDelay(at) + d.cfg.TRCD + d.cfg.TCL
	default:
		d.RowConfl++
		return d.cfg.TRP + d.activateDelay(at+d.cfg.TRP) + d.cfg.TRCD + d.cfg.TCL
	}
}

// refreshDelay returns how long an access arriving at time at must wait if
// it lands inside an all-bank refresh window (tRFC every tREFI). The
// refresh also closes the row.
func (d *Device) refreshDelay(b *bank, at sim.Time) sim.Time {
	if !d.cfg.RefreshEnable || d.cfg.RefreshInterval <= 0 {
		return 0
	}
	phase := at % d.cfg.RefreshInterval
	if phase < d.cfg.RefreshDuration {
		b.openRow = -1 // refresh precharges all banks
		d.Refreshes++
		return d.cfg.RefreshDuration - phase
	}
	return 0
}

// Access performs a line read or write whose command arrives at time at.
// It returns when the data burst completes on the device pins. Channel
// occupancy is accounted by the caller (the channel model), not here.
func (d *Device) Access(at sim.Time, addr uint64, write bool) (done sim.Time) {
	bi, row := d.decode(addr)
	b := &d.banks[bi]
	at += d.refreshDelay(b, at)
	lat := d.latency(b, row, at)
	if b.openRow != row {
		d.lastActivate = at + lat - d.cfg.TCL
	}
	b.openRow = row
	_, done = b.res.Reserve(at, lat+d.cfg.BurstNs)
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	return done
}

// AccessScheduled performs a line access whose start instant was already
// arbitrated (migration operations granted by the conflict-detection
// mechanism): it books exactly its own window and never queues.
func (d *Device) AccessScheduled(at sim.Time, addr uint64, write bool) (done sim.Time) {
	bi, row := d.decode(addr)
	b := &d.banks[bi]
	lat := d.latency(b, row, at)
	b.openRow = row
	_, done = b.res.ReserveAt(at, lat+d.cfg.BurstNs)
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	return done
}

// activateDelay enforces tRRD between successive activates device-wide.
// Activates arrive out of order (scheduled migration operations book future
// instants), so the delay is capped at one tRRD: a future activate must not
// poison the whole device's frontier.
func (d *Device) activateDelay(at sim.Time) sim.Time {
	earliest := d.lastActivate + d.cfg.TRRD
	if at >= earliest {
		return 0
	}
	delay := earliest - at
	if delay > d.cfg.TRRD {
		delay = d.cfg.TRRD
	}
	return delay
}

// Preset performs the precharge+activate sequence the memory controller
// issues to bring addr's bank to a stable activated state before handing the
// bank to the XPoint controller's DDR sequence generator (Figure 11, step 1).
// It returns when the bank is stable. If the row is already open this is
// free.
func (d *Device) Preset(at sim.Time, addr uint64) (ready sim.Time) {
	bi, row := d.decode(addr)
	b := &d.banks[bi]
	if b.openRow == row {
		return at
	}
	var lat sim.Time
	if b.openRow == -1 {
		lat = d.activateDelay(at) + d.cfg.TRCD
	} else {
		lat = d.cfg.TRP + d.activateDelay(at+d.cfg.TRP) + d.cfg.TRCD
	}
	d.lastActivate = at + lat
	b.openRow = row
	_, ready = b.res.ReserveAt(at, lat)
	return ready
}

// RowOpen reports whether addr's row is currently open in its bank — the
// bank-state knowledge the memory controller keeps (Section IV-B: "the
// memory controller records the states of all DRAM banks").
func (d *Device) RowOpen(addr uint64) bool {
	bi, row := d.decode(addr)
	return d.banks[bi].openRow == row
}

// BankBusyUntil exposes a bank's busy frontier for conflict detection.
func (d *Device) BankBusyUntil(addr uint64) sim.Time {
	bi, _ := d.decode(addr)
	return d.banks[bi].res.FreeAt()
}

// RowHitRate returns rowHits / totalAccesses.
func (d *Device) RowHitRate() float64 {
	total := d.RowHits + d.RowMisses + d.RowConfl
	if total == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(total)
}

// String summarises counters for diagnostics.
func (d *Device) String() string {
	return fmt.Sprintf("dram{r=%d w=%d hit=%.2f}", d.Reads, d.Writes, d.RowHitRate())
}
