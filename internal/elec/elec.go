// Package elec models the traditional electrical memory channels that the
// Origin and Hetero platforms use (Table I: six 32-bit channels at 15 GHz).
// Each channel is a serially occupied bus; unlike the optical channel there
// is no second route, so migration traffic always contends with requests.
package elec

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Direction selects the request (controller -> device) or response
// (device -> controller) half of a channel, mirroring the optical model so
// platform comparisons are apples to apples.
type Direction int

const (
	// Forward is controller -> device.
	Forward Direction = iota
	// Backward is device -> controller.
	Backward
)

// Channel is the set of electrical memory channels, one per memory
// controller.
type Channel struct {
	cfg      config.ElectricalConfig
	col      *stats.Collector
	lanes    []sim.GapResource
	wordTime sim.Time
	laneB    float64

	// hEnergy is the pre-interned "elec-channel" energy handle (valid only
	// when col != nil); transfers fire per memory access, so accounting must
	// not hash the component name.
	hEnergy stats.EnergyHandle

	Transfers uint64
}

// New builds the electrical channels. col may be nil.
func New(cfg config.ElectricalConfig, col *stats.Collector) *Channel {
	return NewIn(nil, new(sim.Pools), cfg, col)
}

// NewIn is New rebuilding into a recycled channel set: the lane tables are
// rebuilt in their slots and clocked by the pools' engine. re may be nil
// (New is NewIn(nil, new(sim.Pools), ...)), so fresh and pooled
// construction share one code path.
func NewIn(re *Channel, pools *sim.Pools, cfg config.ElectricalConfig, col *stats.Collector) *Channel {
	if cfg.Channels <= 0 {
		panic("elec: need at least one channel")
	}
	scale := cfg.BandwidthScale
	if scale <= 0 {
		scale = 1
	}
	if re == nil {
		re = &Channel{}
	}
	*re = Channel{
		cfg:      cfg,
		col:      col,
		lanes:    pools.Tables(re.lanes, 2*cfg.Channels),
		wordTime: sim.Time(float64(sim.FreqToPeriod(cfg.FreqHz))*scale + 0.5),
		laneB:    float64(cfg.LaneBits) / 8,
	}
	if col != nil {
		re.hEnergy = col.InternEnergy("elec-channel")
	}
	return re
}

// Transfer serializes n bytes on channel ch's dir half, starting no
// earlier than at.
func (c *Channel) Transfer(ch int, dir Direction, at sim.Time, n int, class stats.Class) (start, end sim.Time) {
	if ch < 0 || 2*ch >= len(c.lanes) {
		panic(fmt.Sprintf("elec: channel %d out of [0,%d)", ch, len(c.lanes)/2))
	}
	words := float64(n) / c.laneB
	dur := sim.Time(words*float64(c.wordTime) + 0.5)
	if dur < c.wordTime {
		dur = c.wordTime
	}
	start, end = c.lanes[2*ch+int(dir)].Reserve(at, dur)
	if c.col != nil {
		c.col.AddChannel(class, uint64(n), dur)
		c.col.AddEnergyH(c.hEnergy, float64(n)*8*c.cfg.PJPerBit)
	}
	c.Transfers++
	return start, end
}

// Busy returns total occupancy across channels.
func (c *Channel) Busy() sim.Time {
	var t sim.Time
	for i := range c.lanes {
		t += c.lanes[i].Busy()
	}
	return t
}

// Channels returns the channel count.
func (c *Channel) Channels() int { return len(c.lanes) / 2 }
