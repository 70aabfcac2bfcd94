// Package ssd models the external storage of the Figure 3 motivation study:
// a GPU–SSD integrated system in which working sets exceeding GPU memory
// are staged over a PCIe DMA engine from a low-latency SSD. The paper used
// a real Samsung Z-NAND testbed; we model first-order latency/bandwidth
// behaviour, which is all the execution-time breakdown depends on.
package ssd

import "repro/internal/sim"

// Config parametrises the storage path.
type Config struct {
	// ReadLatency is the SSD's internal access latency per command
	// (Z-NAND-class, ~20 us).
	ReadLatency sim.Time
	// WriteLatency per command.
	WriteLatency sim.Time
	// BandwidthBps is the device's streaming bandwidth.
	BandwidthBps float64
	// DMABandwidthBps is the PCIe DMA bandwidth between host/SSD and GPU.
	DMABandwidthBps float64
	// DMASetup is per-transfer DMA programming overhead.
	DMASetup sim.Time
}

// Default returns a Z-NAND + PCIe 3.0 x16 class configuration.
func Default() Config {
	return Config{
		ReadLatency:     20 * sim.Microsecond,
		WriteLatency:    30 * sim.Microsecond,
		BandwidthBps:    3.2e9,  // 3.2 GB/s streaming
		DMABandwidthBps: 12.8e9, // PCIe 3.0 x16 effective
		DMASetup:        5 * sim.Microsecond,
	}
}

// Device is the SSD + DMA pipeline. It keeps only its own occupancy: the
// memory system that stages through it charges the host bytes, host time
// and DMA energy of every transfer, whatever the link.
type Device struct {
	cfg   Config
	flash *sim.Resource
	dma   *sim.Resource
}

// New builds the device.
func New(cfg Config) *Device {
	return &Device{
		cfg:   cfg,
		flash: sim.NewResource(),
		dma:   sim.NewResource(),
	}
}

// Stage moves n bytes between the SSD and GPU memory (direction only
// affects latency). It returns when the data is resident on the other side,
// and books the storage and DMA time on separate resources, matching Figure
// 3a's "Storage" and "Data move" bars.
func (d *Device) Stage(at sim.Time, n int64, write bool) (done sim.Time) {
	lat := d.cfg.ReadLatency
	if write {
		lat = d.cfg.WriteLatency
	}
	flashDur := lat + sim.Time(float64(n)/d.cfg.BandwidthBps*1e12)
	_, flashDone := d.flash.Reserve(at, flashDur)

	dmaDur := d.cfg.DMASetup + sim.Time(float64(n)/d.cfg.DMABandwidthBps*1e12)
	_, done = d.dma.Reserve(flashDone, dmaDur)
	return done
}

// FlashBusy and DMABusy expose occupancy for breakdown reports.
func (d *Device) FlashBusy() sim.Time { return d.flash.Busy() }

// DMABusy returns DMA engine occupancy.
func (d *Device) DMABusy() sim.Time { return d.dma.Busy() }
