// Package config holds every configuration parameter of the Ohm-GPU model.
// The defaults reproduce Table I (system configuration) and Table II
// (workload characteristics) of the paper. All simulator components receive
// their parameters from this package so that an experiment is fully
// described by one Config value.
package config

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Platform identifies one of the seven evaluated GPU memory platforms
// (Section VI, "Heterogeneous memory platforms").
type Platform int

const (
	// Origin is the baseline GPU with a DRAM-only memory system and
	// electrical channels; large footprints spill to host memory over PCIe.
	Origin Platform = iota
	// Hetero is DRAM+XPoint over electrical channels; the memory controller
	// copies migration data itself.
	Hetero
	// OhmBase is DRAM+XPoint over the optical channel, still with
	// controller-driven migration.
	OhmBase
	// AutoRW adds the auto-read/write (snarf) function to OhmBase.
	AutoRW
	// OhmWOM adds swap and reverse-write with WOM-coded dual routes.
	OhmWOM
	// OhmBW replaces WOM coding with half-coupled-MRR transmitters,
	// restoring full request bandwidth at 4x laser power.
	OhmBW
	// Oracle is an ideal all-DRAM memory of the full heterogeneous capacity
	// on the optical channel; no migration exists.
	Oracle
)

var platformNames = [...]string{"Origin", "Hetero", "Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle"}

// String returns the paper's platform name.
func (p Platform) String() string {
	if p < 0 || int(p) >= len(platformNames) {
		return fmt.Sprintf("Platform(%d)", int(p))
	}
	return platformNames[p]
}

// AllPlatforms lists the seven platforms in the paper's order.
func AllPlatforms() []Platform {
	return []Platform{Origin, Hetero, OhmBase, AutoRW, OhmWOM, OhmBW, Oracle}
}

// ParsePlatform resolves a platform from its paper name (case-insensitive,
// "-" and "_" interchangeable), via the preset registry: "origin",
// "hetero", "ohm-base", "auto-rw", "ohm-wom", "ohm-bw", "oracle".
func ParsePlatform(name string) (Platform, error) {
	if p, ok := LookupPreset(name); ok {
		return p.Platform, nil
	}
	return 0, fmt.Errorf("config: unknown platform %q (%s)",
		name, strings.Join(PresetNames(), "|"))
}

// ParseMode resolves a memory mode from its name: "planar", "two-level"
// (also "twolevel" or "2lm").
func ParseMode(name string) (MemMode, error) {
	switch normalizeName(name) {
	case "planar":
		return Planar, nil
	case "two-level", "twolevel", "2lm":
		return TwoLevel, nil
	}
	return 0, fmt.Errorf("config: unknown memory mode %q (planar|two-level)", name)
}

// normalizeName lower-cases and folds "_" into "-" for flag-friendly names.
func normalizeName(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), "_", "-")
}

// ExecMode selects how a scenario is evaluated: by the discrete-event
// simulator (the default) or by the closed-form analytical twin
// (internal/twin), which estimates the same report shape without running
// the event loop. ExecMode is deliberately not a Config field: it changes
// how a config is evaluated, not what is evaluated, so DES cache keys and
// golden outputs are untouched by its existence.
type ExecMode int

const (
	// ExecDES runs the discrete-event simulator.
	ExecDES ExecMode = iota
	// ExecAnalytical runs the closed-form analytical twin.
	ExecAnalytical
)

func (e ExecMode) String() string {
	if e == ExecAnalytical {
		return "analytical"
	}
	return "des"
}

// AllExecModes lists both execution modes, DES first.
func AllExecModes() []ExecMode { return []ExecMode{ExecDES, ExecAnalytical} }

// ParseExecMode resolves an execution mode name: "des" (also "simulate")
// or "analytical" (also "twin").
func ParseExecMode(name string) (ExecMode, error) {
	switch normalizeName(name) {
	case "des", "simulate":
		return ExecDES, nil
	case "analytical", "twin":
		return ExecAnalytical, nil
	}
	return 0, fmt.Errorf("config: unknown execution mode %q (des|analytical)", name)
}

// ParseModes resolves a combined mode token: a memory mode, an execution
// mode, or both joined with "+" in either order. Accepted forms include
// "planar", "two-level", "analytical" (planar memory, analytical
// execution), "two-level+analytical" and "planar+des". The memory mode
// defaults to planar when only an execution token is given.
func ParseModes(name string) (MemMode, ExecMode, error) {
	var (
		mem     MemMode
		exec    ExecMode
		haveMem bool
	)
	for _, part := range strings.Split(name, "+") {
		if e, err := ParseExecMode(part); err == nil {
			if e == ExecAnalytical {
				exec = ExecAnalytical
			}
			continue
		}
		m, err := ParseMode(part)
		if err != nil {
			return 0, 0, fmt.Errorf("config: unknown memory mode %q (planar|two-level, optionally +analytical)", name)
		}
		if haveMem && m != mem {
			return 0, 0, fmt.Errorf("config: mode %q names two memory modes", name)
		}
		mem, haveMem = m, true
	}
	return mem, exec, nil
}

// ModeString renders the canonical combined mode token ParseModes accepts:
// the bare memory mode for DES, "analytical" for planar+analytical, and
// "two-level+analytical" otherwise.
func ModeString(m MemMode, e ExecMode) string {
	if e != ExecAnalytical {
		return m.String()
	}
	if m == Planar {
		return "analytical"
	}
	return m.String() + "+analytical"
}

// OpticalPlatforms lists the platforms whose memory channel is optical.
func OpticalPlatforms() []Platform {
	return []Platform{OhmBase, AutoRW, OhmWOM, OhmBW, Oracle}
}

// Optical reports whether the platform uses the optical channel.
func (p Platform) Optical() bool { return p != Origin && p != Hetero }

// Heterogeneous reports whether the platform mixes DRAM and XPoint.
func (p Platform) Heterogeneous() bool {
	return p == Hetero || p == OhmBase || p == AutoRW || p == OhmWOM || p == OhmBW
}

// MemMode selects the heterogeneous memory operational mode (Section III-B).
type MemMode int

const (
	// Planar exposes DRAM and XPoint in one unified address space and swaps
	// hot XPoint pages with their group's DRAM page.
	Planar MemMode = iota
	// TwoLevel uses DRAM as a direct-mapped inclusive cache of XPoint with
	// tag metadata stored in the ECC region of each DRAM cache line.
	TwoLevel
)

func (m MemMode) String() string {
	if m == Planar {
		return "planar"
	}
	return "two-level"
}

// AllModes lists both operational modes.
func AllModes() []MemMode { return []MemMode{Planar, TwoLevel} }

// GPUConfig reproduces the "GPU configuration" column of Table I.
type GPUConfig struct {
	SMs           int     // streaming multiprocessors
	CoreFreqHz    float64 // SM clock
	WarpsPerSM    int     // resident warps per SM
	L1SizeBytes   int     // private L1D per SM
	L1Ways        int
	L2SizeBytes   int // shared L2
	L2Ways        int
	LineBytes     int      // cache line / memory access granularity
	MemCtrls      int      // GPU-side memory controllers
	InterconnectL sim.Time // SM<->L2 interconnect hop latency
	// MSHREntries enables L2-level miss-status-holding registers when
	// positive: concurrent misses to the same line coalesce into one memory
	// request. Off by default so the published calibration is unchanged;
	// the ablation experiments quantify its effect.
	MSHREntries int
	// NoCDetailed replaces the constant SM<->L2 interconnect latency with
	// the contention-aware crossbar of internal/noc. Off by default (same
	// reason as MSHREntries); the ablation quantifies it.
	NoCDetailed bool
	L2Latency   sim.Time // L2 lookup latency
	L1Latency   sim.Time // L1 lookup latency
}

// CacheScale shrinks the Table I cache capacities to track the memory-
// system scale-down (MemScale). Without it the unscaled 6MB L2 would
// swallow the scaled working sets entirely and starve the memory system —
// the paper's Table II APKI values are measured at the memory controllers,
// i.e. with caches that filter very little of these workloads.
const CacheScale = 16

// DefaultGPU returns Table I's GPU configuration (16 SMs @ 1.2 GHz, 48KB
// 6-way L1 and 6MB 8-way shared L2 — both divided by CacheScale — and 6
// memory controllers).
func DefaultGPU() GPUConfig {
	return GPUConfig{
		SMs:           16,
		CoreFreqHz:    1.2e9,
		WarpsPerSM:    8,
		L1SizeBytes:   48 << 10 / CacheScale,
		L1Ways:        6,
		L2SizeBytes:   6 << 20 / CacheScale,
		L2Ways:        8,
		LineBytes:     128,
		MemCtrls:      6,
		InterconnectL: 20 * sim.Nanosecond,
		L2Latency:     10 * sim.Nanosecond,
		L1Latency:     1 * sim.Nanosecond,
	}
}

// DRAMConfig reproduces the DRAM timing rows of Table I.
type DRAMConfig struct {
	TRCD     sim.Time // row-to-column delay (25 ns in Table I)
	TRP      sim.Time // precharge (10 ns)
	TCL      sim.Time // CAS latency (11 ns)
	TRRD     sim.Time // rank-to-rank / activate-to-activate delay (5 ns)
	Banks    int      // banks per device
	RowBytes int      // row-buffer size
	BurstNs  sim.Time // data burst time for one cache line on the device bus
	// RefreshInterval (tREFI) and RefreshDuration (tRFC) model all-bank
	// refresh: every interval, each bank is unavailable for the duration.
	// RefreshEnable gates the model (off by default: refresh costs ~1-2%
	// and the published calibration was done without it; the ablation
	// experiments quantify it).
	RefreshEnable   bool
	RefreshInterval sim.Time
	RefreshDuration sim.Time
}

// DefaultDRAM returns Table I's DRAM timing.
func DefaultDRAM() DRAMConfig {
	return DRAMConfig{
		TRCD:            25 * sim.Nanosecond,
		TRP:             10 * sim.Nanosecond,
		TCL:             11 * sim.Nanosecond,
		TRRD:            5 * sim.Nanosecond,
		Banks:           16,
		RowBytes:        2 << 10,
		BurstNs:         4 * sim.Nanosecond,
		RefreshInterval: 7800 * sim.Nanosecond, // tREFI
		RefreshDuration: 350 * sim.Nanosecond,  // tRFC
	}
}

// XPointConfig reproduces the PRAM rows of Table I plus logic-layer
// controller parameters (Section III-A).
type XPointConfig struct {
	ReadLatency  sim.Time // 190 ns (Table I, PRAM read)
	WriteLatency sim.Time // 763 ns (Table I, PRAM write)
	ReadBufEnt   int      // read buffer entries in the XPoint controller
	WriteBufEnt  int      // persistent write buffer entries
	Partitions   int      // internal media parallelism (concurrent accesses)
	StartGapK    int      // Start-Gap: move the gap every K writes
	WearLimit    uint64   // per-line endurance budget (writes)
}

// DefaultXPoint returns Table I's XPoint latencies with controller defaults.
func DefaultXPoint() XPointConfig {
	return XPointConfig{
		ReadLatency:  190 * sim.Nanosecond,
		WriteLatency: 763 * sim.Nanosecond,
		ReadBufEnt:   64,
		WriteBufEnt:  64,
		Partitions:   32,
		StartGapK:    100,
		WearLimit:    1_000_000,
	}
}

// OpticalConfig reproduces the "Optical channel configuration" and "Optical
// power model" sections of Table I.
type OpticalConfig struct {
	ChannelBits     int     // total channel width (96 bits)
	FreqHz          float64 // 30 GHz
	VirtualChannels int     // 6 (static channel division, one per MC)
	Waveguides      int     // number of physical waveguides (sensitivity knob)
	// DynamicDivision enables the wavelength-borrowing strategy of [38]
	// (Table I's default is static division): a controller whose own
	// virtual channel is backlogged may borrow the least-loaded idle VC,
	// paying an extra demux switch. An ablation experiment quantifies it.
	DynamicDivision bool
	// BandwidthScale divides effective channel bandwidth to match the
	// footprint scale-down (the paper scales memory 12x for simulation
	// speed; we scale footprints further and rescale the channel so the
	// demand:bandwidth ratio — the regime under study — is preserved).
	BandwidthScale float64

	// Power model (Table I, right column).
	MRRTuningFJPerBit float64 // 200 fJ/bit
	FilterDropDB      float64 // 1.5 dB
	WaveguideLossDBcm float64 // 0.3 dB/cm
	SplitterLossDB    float64 // 0.2 dB
	DetectorLossDB    float64 // 0.1 dB
	ModulatorLossDB   float64 // up to 1 dB
	WaveguideCM       float64 // modelled waveguide length in cm
	LaserPowerMW      float64 // per-wavelength laser power (0.73 mW default)
	LaserBoost        float64 // multiplier (2x Auto-rw/Ohm-WOM, 4x Ohm-BW)

	// DemuxSwitch is the photonic demultiplexer arbitration switch time that
	// gates a memory device onto a virtual channel.
	DemuxSwitch sim.Time
	// HCMRRTune is the half-coupled MRR resonance tuning time (500 ps, [53]).
	HCMRRTune sim.Time
	// SerDesLatency is the serializer/deserializer latency at each endpoint.
	SerDesLatency sim.Time
}

// DefaultOptical returns Table I's optical channel configuration: one
// waveguide, 96-bit channel at 30 GHz statically divided into six 16-bit
// virtual channels, and the published power model constants.
func DefaultOptical() OpticalConfig {
	return OpticalConfig{
		ChannelBits:       96,
		FreqHz:            30e9,
		VirtualChannels:   6,
		Waveguides:        1,
		BandwidthScale:    10,
		MRRTuningFJPerBit: 200,
		FilterDropDB:      1.5,
		WaveguideLossDBcm: 0.3,
		SplitterLossDB:    0.2,
		DetectorLossDB:    0.1,
		ModulatorLossDB:   1.0,
		WaveguideCM:       2.0,
		LaserPowerMW:      0.73,
		LaserBoost:        1.0,
		DemuxSwitch:       100 * sim.Picosecond,
		HCMRRTune:         500 * sim.Picosecond,
		SerDesLatency:     1 * sim.Nanosecond,
	}
}

// ElectricalConfig reproduces Table I's electrical channel row: 6 channels,
// 32-bit each, 15 GHz.
type ElectricalConfig struct {
	Channels int
	LaneBits int
	FreqHz   float64
	PJPerBit float64 // energy per transferred bit (DMA power basis)
	// BandwidthScale mirrors OpticalConfig.BandwidthScale so the default
	// optical and electrical channels stay bandwidth-equivalent.
	BandwidthScale float64
}

// DefaultElectrical returns Table I's electrical channel configuration.
func DefaultElectrical() ElectricalConfig {
	return ElectricalConfig{Channels: 6, LaneBits: 32, FreqHz: 15e9, PJPerBit: 0.7, BandwidthScale: 10}
}

// MemoryConfig sizes the heterogeneous memory. The paper scales footprints
// to 8 GB and GPU memory down 12x for simulation speed; we scale further for
// unit-test speed but preserve the DRAM:XPoint capacity ratios (1:8 planar,
// 1:64 two-level).
type MemoryConfig struct {
	DRAMBytes    int64 // DRAM capacity
	XPointBytes  int64 // XPoint capacity (0 for Origin/Oracle)
	PageBytes    int   // migration granularity (planar groups, 2-level lines)
	HotThreshold int   // planar: accesses since the page's last swap that mark it hot
}

// MemScale is the capacity scale-down versus the paper's testbed (which
// itself scales memory 12x and footprints to 8GB for simulation speed). At
// 256x the scaled footprints (tens of MB) remain far larger than the 6MB
// L2, preserving the cache-filtering behaviour the evaluation depends on.
const MemScale = 256

// FootprintUnit is the byte value of one Workload.FootprintScale unit: the
// paper's 8GB-class footprints scale to the 12-40MB range, always well
// above the 6MB L2 so the memory system stays exercised.
const FootprintUnit = 8 << 20

// DefaultMemory returns the scaled memory configuration for a mode,
// preserving Table I/III's capacities: planar uses twelve 1GB DRAM DIMMs
// (1:8 => 108GB class), two-level six 1GB DIMMs (1:64 => 390GB class).
func DefaultMemory(mode MemMode) MemoryConfig {
	dram := int64(12<<30) / MemScale
	if mode == TwoLevel {
		dram /= 2 // Table III: 1GB x 6 instead of 1GB x 12
	}
	m := MemoryConfig{
		DRAMBytes:    dram,
		PageBytes:    4 << 10,
		HotThreshold: 4,
	}
	switch mode {
	case Planar:
		m.XPointBytes = dram * 8
	case TwoLevel:
		m.XPointBytes = dram * 64
	}
	return m
}

// Config is a complete experiment description.
type Config struct {
	Platform   Platform
	Mode       MemMode
	GPU        GPUConfig
	DRAM       DRAMConfig
	XPoint     XPointConfig
	Optical    OpticalConfig
	Electrical ElectricalConfig
	Memory     MemoryConfig
	Seed       uint64
	// MaxInstructions bounds the per-warp trace length (simulation budget).
	MaxInstructions int
}

// Default assembles the full Table I configuration for a platform and mode.
// Platform-specific adjustments (laser boost, Oracle capacity) are applied
// here so callers get a runnable config in one call.
func Default(p Platform, mode MemMode) Config {
	c := Config{
		Platform:        p,
		Mode:            mode,
		GPU:             DefaultGPU(),
		DRAM:            DefaultDRAM(),
		XPoint:          DefaultXPoint(),
		Optical:         DefaultOptical(),
		Electrical:      DefaultElectrical(),
		Memory:          DefaultMemory(mode),
		Seed:            0x0A11CE,
		MaxInstructions: 20000,
	}
	switch p {
	case Origin:
		// DRAM-only, small capacity: the paper scales the K80's 24GB down
		// 12x to 2GB, below every footprint, so Origin spills over PCIe.
		c.Memory.XPointBytes = 0
		c.Memory.DRAMBytes = int64(1<<30) / MemScale
	case Oracle:
		// Ideal: all-DRAM with the full heterogeneous capacity.
		c.Memory.DRAMBytes += c.Memory.XPointBytes
		c.Memory.XPointBytes = 0
	case AutoRW, OhmWOM:
		c.Optical.LaserBoost = 2
	case OhmBW:
		c.Optical.LaserBoost = 4
	}
	return c
}

// Validate checks internal consistency; every experiment validates its
// config before running so a typo fails loudly rather than skewing results.
func (c *Config) Validate() error {
	if c.GPU.SMs <= 0 || c.GPU.WarpsPerSM <= 0 {
		return fmt.Errorf("config: GPU dimensions must be positive: %+v", c.GPU)
	}
	if c.GPU.LineBytes <= 0 || c.GPU.LineBytes&(c.GPU.LineBytes-1) != 0 {
		return fmt.Errorf("config: line size %d must be a positive power of two", c.GPU.LineBytes)
	}
	if c.GPU.MemCtrls <= 0 {
		return fmt.Errorf("config: need at least one memory controller")
	}
	if c.Optical.VirtualChannels != c.GPU.MemCtrls && c.Platform.Optical() {
		return fmt.Errorf("config: static channel division requires VCs (%d) == MCs (%d)",
			c.Optical.VirtualChannels, c.GPU.MemCtrls)
	}
	if c.Optical.Waveguides <= 0 {
		return fmt.Errorf("config: waveguides must be positive")
	}
	// !(x > 0) rather than x <= 0, so that NaN fails too.
	if !(c.GPU.CoreFreqHz > 0) || !(c.Optical.FreqHz > 0) || !(c.Electrical.FreqHz > 0) {
		return fmt.Errorf("config: clock frequencies must be positive: core %v Hz, optical %v Hz, electrical %v Hz",
			c.GPU.CoreFreqHz, c.Optical.FreqHz, c.Electrical.FreqHz)
	}
	// Each memory controller's DRAM share divides Origin's addresses.
	if c.Memory.DRAMBytes < int64(c.GPU.MemCtrls) {
		return fmt.Errorf("config: memory.dram_bytes %d must be at least gpu.mem_ctrls (%d), a byte per memory controller",
			c.Memory.DRAMBytes, c.GPU.MemCtrls)
	}
	if c.Platform.Heterogeneous() && c.Memory.XPointBytes <= 0 {
		return fmt.Errorf("config: %s requires XPoint capacity", c.Platform)
	}
	if c.Memory.PageBytes <= 0 || c.Memory.PageBytes%c.GPU.LineBytes != 0 {
		return fmt.Errorf("config: page size %d must be a positive multiple of line size %d",
			c.Memory.PageBytes, c.GPU.LineBytes)
	}
	// Sizes and divisors a component reads. Each binds only where that
	// component is built: the electrical channel on Origin and Hetero, the
	// optical one elsewhere, XPoint on the heterogeneous platforms. Below
	// its bound a value panics a cell or makes its channel free.
	elec, xp := !c.Platform.Optical(), c.Platform.Heterogeneous()
	for _, b := range []struct {
		path    string
		v       int
		applies bool
	}{
		{"memory.hot_threshold", c.Memory.HotThreshold, true},
		{"dram.row_bytes", c.DRAM.RowBytes, true},
		{"xpoint.read_buf_ent", c.XPoint.ReadBufEnt, xp},
		{"xpoint.write_buf_ent", c.XPoint.WriteBufEnt, xp},
		{"optical.channel_bits", c.Optical.ChannelBits, !elec},
		{"electrical.lane_bits", c.Electrical.LaneBits, elec},
	} {
		if b.applies && b.v < 1 {
			return fmt.Errorf("config: %s %d must be at least 1", b.path, b.v)
		}
	}
	if elec && c.Electrical.Channels < c.GPU.MemCtrls {
		return fmt.Errorf("config: electrical.channels %d must be at least gpu.mem_ctrls (%d), one channel per memory controller",
			c.Electrical.Channels, c.GPU.MemCtrls)
	}
	if elec && !(c.Electrical.PJPerBit >= 0) {
		return fmt.Errorf("config: electrical.pj_per_bit %v must not be negative", c.Electrical.PJPerBit)
	}
	if c.XPoint.ReadLatency <= 0 || c.XPoint.WriteLatency <= 0 {
		return fmt.Errorf("config: XPoint latencies must be positive")
	}
	if c.DRAM.Banks <= 0 {
		return fmt.Errorf("config: DRAM banks must be positive")
	}
	if c.MaxInstructions <= 0 {
		return fmt.Errorf("config: MaxInstructions must be positive")
	}
	// Bound the total trace budget: trace generation draws for every
	// instruction and keeps a record per memory instruction (up to 95% of
	// them), and the simulator issues every instruction. All three factors
	// are override-reachable from untrusted specs, so an unbounded product
	// would let a small document demand unbounded work and a terabyte-class
	// allocation (the cap still allows >10,000x the default 16x8x20000
	// budget).
	if c.GPU.SMs > MaxTraceInstructions ||
		c.GPU.WarpsPerSM > MaxTraceInstructions/c.GPU.SMs ||
		c.MaxInstructions > MaxTraceInstructions/(c.GPU.SMs*c.GPU.WarpsPerSM) {
		return fmt.Errorf("config: trace budget %d SMs x %d warps x %d instructions exceeds %d total instructions",
			c.GPU.SMs, c.GPU.WarpsPerSM, c.MaxInstructions, MaxTraceInstructions)
	}
	return nil
}

// MaxTraceInstructions caps SMs x WarpsPerSM x MaxInstructions, the number
// of trace instructions a single cell may generate and simulate. It also
// keeps every compute run within a trace record's 32-bit run length.
const MaxTraceInstructions = 1 << 28

// OpticalChannelBandwidth returns bytes/second of the whole optical channel
// (all waveguides).
func (c *Config) OpticalChannelBandwidth() float64 {
	return float64(c.Optical.ChannelBits) / 8 * c.Optical.FreqHz * float64(c.Optical.Waveguides)
}

// ElectricalChannelBandwidth returns bytes/second of all electrical channels.
func (c *Config) ElectricalChannelBandwidth() float64 {
	e := c.Electrical
	return float64(e.Channels*e.LaneBits) / 8 * e.FreqHz
}
