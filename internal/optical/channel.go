package optical

import (
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Direction selects the forward (controller -> device: commands, write
// data) or backward (device -> controller: read data) path of a virtual
// channel. The two directions use distinct MRR pairs (Figure 15's forward
// and backward paths), so a response scheduled for a future device-ready
// instant never blocks commands issued meanwhile.
type Direction int

const (
	// Forward is controller -> device.
	Forward Direction = iota
	// Backward is device -> controller.
	Backward
)

// Channel is the optical memory channel of Figure 6b: one or more waveguides
// carrying DWDM wavelengths that are statically divided into per-memory-
// controller virtual channels. Each virtual channel direction serializes
// transfers FCFS; a photonic demultiplexer arbitrates which memory device's
// detector is enabled, costing a switch delay whenever the target device
// changes.
//
// Dual routes (Section IV-C): each virtual channel additionally owns a
// *memory route* between memory devices. When the platform supports it,
// migration transfers ride the memory route and leave the data route free
// for memory requests — that is the paper's central mechanism.
type Channel struct {
	cfg  config.OpticalConfig
	pm   PowerModel
	col  *stats.Collector
	data []sim.GapResource // data route per VC x direction (2 per VC)
	mem  []sim.GapResource // memory route per virtual channel (dual routes)
	last []int             // last device granted per VC x direction
	// womActive marks VCs whose light is currently shared by a WOM-coded
	// swap; request serialization on them pays the 3/2 overhead.
	womActive []sim.Time // until when WOM sharing is active per VC

	bitTime sim.Time // time of one parallel word on one VC
	vcBytes float64  // bytes carried per word on one VC across waveguides

	// hEnergy is the pre-interned "opti-network" energy handle; transfers
	// fire on every memory access, so per-transfer accounting must not hash
	// the component name. Valid only when col != nil.
	hEnergy stats.EnergyHandle

	Transfers     uint64
	DemuxSwitches uint64
	Borrows       uint64 // dynamic-division wavelength borrows
}

// NewChannel builds the optical channel with vcs virtual channels, one
// per memory controller. The collector may be nil when the caller does its
// own accounting (unit tests).
func NewChannel(cfg config.OpticalConfig, vcs int, col *stats.Collector) *Channel {
	return NewChannelIn(nil, new(sim.Pools), cfg, vcs, col)
}

// NewChannelIn is NewChannel rebuilding into a recycled channel: the
// per-VC slices, route tables included, are rebuilt in their slots, and
// the tables are clocked by the pools' engine. re may be nil (NewChannel
// is NewChannelIn(nil, new(sim.Pools), ...)), so fresh and pooled
// construction share one code path.
func NewChannelIn(re *Channel, pools *sim.Pools, cfg config.OpticalConfig, vcs int, col *stats.Collector) *Channel {
	if re == nil {
		re = &Channel{}
	}
	c := re
	*c = Channel{
		cfg:       cfg,
		pm:        PowerModel{cfg: cfg, vcs: vcs},
		col:       col,
		data:      pools.Tables(c.data, 2*vcs),
		mem:       pools.Tables(c.mem, vcs),
		last:      sim.Slots(c.last, 2*vcs),
		womActive: sim.Slots(c.womActive, vcs),
	}
	if col != nil {
		c.hEnergy = col.InternEnergy("opti-network")
	}
	for i := range c.last {
		c.last[i] = -1
	}
	clear(c.womActive)
	c.bitTime = sim.Time(float64(sim.FreqToPeriod(cfg.FreqHz))*cfg.BandwidthScale + 0.5)
	vcBits := float64(cfg.ChannelBits) / float64(vcs)
	c.vcBytes = vcBits / 8 * float64(cfg.Waveguides)
	return c
}

// serialization returns how long n bytes occupy one virtual channel.
// womTaxed selects whether an active WOM sharing window (or being the
// WOM-coded transfer itself) applies the 3/2 code expansion; only the
// forward path's light is shared by a swap (Figure 15), so backward
// transfers never pay it.
func (c *Channel) serialization(vc int, at sim.Time, n int, womTaxed bool) sim.Time {
	words := float64(n) / c.vcBytes
	t := sim.Time(words*float64(c.bitTime) + 0.5)
	if t < c.bitTime {
		t = c.bitTime
	}
	if womTaxed {
		t = sim.Time(float64(t)*Overhead + 0.5)
	}
	return t
}

// Transfer serializes n bytes on vc's data route toward device dev on the
// given direction, starting no earlier than at. It returns the transfer
// window. class attributes the occupancy to regular or migration traffic.
//
// Under dynamic channel division ([38]; Table I's default is static), a
// backlogged virtual channel borrows the least-loaded one instead, paying
// an extra demultiplexer switch to retune the wavelength.
func (c *Channel) Transfer(vc int, dev int, dir Direction, at sim.Time, n int, class stats.Class) (start, end sim.Time) {
	useVC := vc
	var borrowed bool
	if c.cfg.DynamicDivision {
		if alt := c.leastLoaded(dir, at); alt != vc && c.data[2*vc+int(dir)].FreeAt() > at {
			useVC, borrowed = alt, true
			c.Borrows++
		}
	}
	idx := 2*useVC + int(dir)
	taxed := dir == Forward && at < c.womActive[useVC]
	dur := c.serialization(useVC, at, n, taxed) + c.cfg.SerDesLatency
	if c.last[idx] != dev || borrowed {
		dur += c.cfg.DemuxSwitch
		c.last[idx] = dev
		c.DemuxSwitches++
	}
	start, end = c.data[idx].Reserve(at, dur)
	c.account(class, n, dur)
	c.Transfers++
	return start, end
}

// leastLoaded returns the virtual channel whose dir frontier is earliest.
func (c *Channel) leastLoaded(dir Direction, at sim.Time) int {
	best, bestAt := 0, c.data[int(dir)].FreeAt()
	for vc := 1; vc < len(c.mem); vc++ {
		if f := c.data[2*vc+int(dir)].FreeAt(); f < bestAt {
			best, bestAt = vc, f
		}
	}
	return best
}

// TransferMemRoute serializes n bytes on vc's memory route — the device-to-
// device route created by the half-coupled MRRs. It does not occupy the
// data route, so memory requests proceed in parallel; this is only legal on
// platforms whose MRR layout provides the route (the hmem controller guards
// that). Occupancy is accounted as migration traffic but NOT as data-route
// busy time, matching Figure 18 (dual-route migration leaves the channel).
func (c *Channel) TransferMemRoute(vc int, at sim.Time, n int) (start, end sim.Time) {
	dur := c.serialization(vc, at, n, false) + c.cfg.HCMRRTune
	start, end = c.mem[vc].Reserve(at, dur)
	if c.col != nil {
		// Bytes move, but the data route stays free: record bytes with zero
		// data-route occupancy.
		c.col.AddChannel(stats.DataCopy, uint64(n), 0)
		c.col.DualRouteBytes += uint64(n)
		c.col.AddEnergyH(c.hEnergy, c.pm.TuningEnergyPJ(uint64(n)))
	}
	c.Transfers++
	return start, end
}

// TransferWOMShared serializes a swap's migration bytes multiplexed into the
// same light as ongoing requests (Ohm-WOM's swap, Figure 13b/14). The
// migration itself uses spare code capacity so it books the memory route,
// but it marks the VC WOM-active for its duration: concurrent request
// transfers pay the 3/2 serialization overhead.
func (c *Channel) TransferWOMShared(vc int, at sim.Time, n int) (start, end sim.Time) {
	dur := c.serialization(vc, at, n, true) + c.cfg.HCMRRTune
	start, end = c.mem[vc].Reserve(at, dur)
	if end > c.womActive[vc] {
		c.womActive[vc] = end
	}
	if c.col != nil {
		c.col.AddChannel(stats.DataCopy, uint64(n), 0)
		c.col.DualRouteBytes += uint64(n)
		c.col.AddEnergyH(c.hEnergy, c.pm.TuningEnergyPJ(uint64(n)))
	}
	c.Transfers++
	return start, end
}

// DataFreeAt returns when vc's data route frees in a direction (conflict
// detection input).
func (c *Channel) DataFreeAt(vc int, dir Direction) sim.Time {
	return c.data[2*vc+int(dir)].FreeAt()
}

// DataBusy returns total data-route occupancy across VCs.
func (c *Channel) DataBusy() sim.Time {
	var t sim.Time
	for i := range c.data {
		t += c.data[i].Busy()
	}
	return t
}

// MemRouteBusy returns total memory-route occupancy across VCs.
func (c *Channel) MemRouteBusy() sim.Time {
	var t sim.Time
	for i := range c.mem {
		t += c.mem[i].Busy()
	}
	return t
}

// VCs returns the number of virtual channels.
func (c *Channel) VCs() int { return len(c.mem) }

func (c *Channel) account(class stats.Class, n int, busy sim.Time) {
	if c.col == nil {
		return
	}
	c.col.AddChannel(class, uint64(n), busy)
	c.col.AddEnergyH(c.hEnergy, c.pm.TuningEnergyPJ(uint64(n)))
}
