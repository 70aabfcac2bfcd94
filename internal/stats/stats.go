// Package stats collects the measurements every experiment reports: memory
// access latencies, channel bandwidth split between regular requests and
// data-copy (migration) traffic, instruction throughput, and energy. A
// single Collector is threaded through the simulator; experiments read a
// Snapshot after the run.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Class partitions channel traffic the way Figures 8 and 18 report it.
type Class int

const (
	// RegularRequest is demand traffic generated by GPU kernels.
	RegularRequest Class = iota
	// DataCopy is migration traffic between DRAM and XPoint.
	DataCopy
)

func (c Class) String() string {
	if c == RegularRequest {
		return "regular"
	}
	return "copy"
}

// LatencyDist accumulates a latency distribution without storing every
// sample: count, sum, min/max, and a coarse log-scaled histogram good enough
// for percentile estimates in reports.
type LatencyDist struct {
	Count   uint64
	Sum     sim.Time
	Min     sim.Time
	Max     sim.Time
	buckets [64]uint64 // bucket i holds samples with bitlen(ns) == i
}

// Add records one latency sample.
func (d *LatencyDist) Add(t sim.Time) {
	if t < 0 {
		t = 0
	}
	if d.Count == 0 || t < d.Min {
		d.Min = t
	}
	if t > d.Max {
		d.Max = t
	}
	d.Count++
	d.Sum += t
	ns := uint64(t / sim.Nanosecond)
	b := 0
	for ns > 0 {
		ns >>= 1
		b++
	}
	d.buckets[b]++
}

// Mean returns the average latency; zero if empty.
func (d *LatencyDist) Mean() sim.Time {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / sim.Time(d.Count)
}

// Percentile returns an upper-bound estimate for the p-th percentile
// (p in [0,100]) from the log histogram.
func (d *LatencyDist) Percentile(p float64) sim.Time {
	if d.Count == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(d.Count))
	if target >= d.Count {
		target = d.Count - 1
	}
	var seen uint64
	for i, n := range d.buckets {
		seen += n
		if seen > target {
			return sim.Time(uint64(1)<<uint(i)) * sim.Nanosecond
		}
	}
	return d.Max
}

// Merge adds other's samples into d.
func (d *LatencyDist) Merge(other *LatencyDist) {
	if other.Count == 0 {
		return
	}
	if d.Count == 0 || other.Min < d.Min {
		d.Min = other.Min
	}
	if other.Max > d.Max {
		d.Max = other.Max
	}
	d.Count += other.Count
	d.Sum += other.Sum
	for i := range d.buckets {
		d.buckets[i] += other.buckets[i]
	}
}

// Collector is the run-wide metric sink. It is not goroutine-safe: the
// discrete-event engine is single-threaded by design.
type Collector struct {
	Instructions uint64 // retired warp-instructions
	MemRequests  uint64 // requests reaching the memory controllers
	Reads        uint64
	Writes       uint64
	L1Hits       uint64
	L1Misses     uint64
	L2Hits       uint64
	L2Misses     uint64

	MemLatency LatencyDist // request arrival at MC -> data response

	// Channel byte counters per traffic class (Figures 8 and 18).
	ChannelBytes [2]uint64
	// ChannelBusy accumulates channel occupancy per class.
	ChannelBusy [2]sim.Time

	Migrations     uint64 // page/line migrations performed
	MigratedBytes  uint64
	SnarfedBytes   uint64 // bytes a controller captured from dual routes
	DualRouteBytes uint64 // migration bytes carried on the memory route

	// Host transfer accounting (Origin spills, Fig. 3 SSD experiment).
	HostBytes uint64
	HostTime  sim.Time

	// Energy in picojoules by component (Figure 19 breakdown).
	EnergyPJ map[string]float64

	Extra map[string]float64 // free-form experiment metrics

	// Hot-path accumulators behind pre-interned handles (see InternEnergy /
	// InternExtra). Values are folded into the maps above by flush(), which
	// every map reader calls first; per-access code never hashes a string.
	energy counterBank
	extra  counterBank
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		EnergyPJ: make(map[string]float64),
		Extra:    make(map[string]float64),
	}
}

// Reset returns the collector to its just-constructed state while keeping
// allocated capacity. The EnergyPJ/Extra maps survive with their buckets
// (cleared), and the counter banks keep their interning tables — so a
// pooled run that interns the same component names gets its old handles
// back — with every accumulator zeroed and marked untouched. After Reset
// the collector is observationally identical to NewCollector().
func (c *Collector) Reset() {
	*c = Collector{
		EnergyPJ: c.EnergyPJ,
		Extra:    c.Extra,
		energy:   c.energy,
		extra:    c.extra,
	}
	clear(c.EnergyPJ)
	clear(c.Extra)
	c.energy.reset()
	c.extra.reset()
}

// EnergyHandle is a pre-interned index into the collector's energy
// accumulators; obtain one with InternEnergy at construction time and add
// through it on hot paths.
type EnergyHandle int32

// ExtraHandle is a pre-interned index into the collector's extra-metric
// accumulators.
type ExtraHandle int32

// counterBank is a slice-backed accumulator bank: handle i adds into
// vals[i] with no hashing; flushInto folds touched slots into the named map
// and rearms them. Folding preserves byte-identical results versus direct
// map accumulation: each name's samples form one contiguous left-to-right
// addition chain, and the final fold into the map slot is a single
// commutative addition.
type counterBank struct {
	names   []string
	vals    []float64
	touched []bool
	idx     map[string]int32
}

func (b *counterBank) intern(name string) int32 {
	if i, ok := b.idx[name]; ok {
		return i
	}
	if b.idx == nil {
		b.idx = make(map[string]int32)
	}
	i := int32(len(b.vals))
	b.names = append(b.names, name)
	b.vals = append(b.vals, 0)
	b.touched = append(b.touched, false)
	b.idx[name] = i
	return i
}

func (b *counterBank) add(h int32, v float64) {
	b.vals[h] += v
	b.touched[h] = true
}

// reset zeroes the accumulators but keeps the interning tables: handle i
// still maps to names[i], so a component that re-interns the same name on a
// pooled run gets the same handle back without growing the bank.
func (b *counterBank) reset() {
	clear(b.vals)
	clear(b.touched)
}

// flushInto folds touched accumulators into m. Untouched handles do not
// create map keys, so interning alone never changes a report.
func (b *counterBank) flushInto(m map[string]float64) {
	for i, t := range b.touched {
		if t {
			m[b.names[i]] += b.vals[i]
			b.vals[i] = 0
			b.touched[i] = false
		}
	}
}

// InternEnergy returns a handle for accumulating energy under a component
// name without per-access string hashing. Interning the same name twice
// returns the same handle.
func (c *Collector) InternEnergy(component string) EnergyHandle {
	return EnergyHandle(c.energy.intern(component))
}

// AddEnergyH accumulates picojoules through a pre-interned handle.
func (c *Collector) AddEnergyH(h EnergyHandle, pj float64) {
	c.energy.add(int32(h), pj)
}

// InternExtra returns a handle for a free-form metric name.
func (c *Collector) InternExtra(name string) ExtraHandle {
	return ExtraHandle(c.extra.intern(name))
}

// AddExtraH accumulates a free-form metric through a pre-interned handle.
func (c *Collector) AddExtraH(h ExtraHandle, v float64) {
	c.extra.add(int32(h), v)
}

// Flush folds all pending handle accumulators into the EnergyPJ and Extra
// maps. Every reader of those maps inside this package calls it first
// (Snapshot does, so reports are always complete); external code reading
// the collector maps directly mid-run must call it too.
func (c *Collector) Flush() {
	c.energy.flushInto(c.EnergyPJ)
	c.extra.flushInto(c.Extra)
}

// AddChannel records a channel transfer of n bytes occupying the channel for
// busy picoseconds, classed as regular or copy traffic.
func (c *Collector) AddChannel(class Class, n uint64, busy sim.Time) {
	c.ChannelBytes[class] += n
	c.ChannelBusy[class] += busy
}

// CopyFraction returns the fraction of channel busy time consumed by data
// copies (Figure 8/18's "wasted" bandwidth), in [0,1].
func (c *Collector) CopyFraction() float64 {
	total := c.ChannelBusy[RegularRequest] + c.ChannelBusy[DataCopy]
	if total == 0 {
		return 0
	}
	return float64(c.ChannelBusy[DataCopy]) / float64(total)
}

// IPC returns instructions per GPU core cycle across all SMs.
func (c *Collector) IPC(elapsed sim.Time, coreFreqHz float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	cycles := elapsed.Seconds() * coreFreqHz
	if cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / cycles
}

// TotalEnergyPJ sums all component energies.
func (c *Collector) TotalEnergyPJ() float64 {
	c.Flush()
	return sumEnergy(c.EnergyPJ)
}

// sumEnergy totals an energy map in sorted-key order: float addition is not
// associative, so summing in map-iteration order would make totals differ
// in the last ulp between otherwise identical runs — enough to break the
// byte-identical guarantee the batch sweep engine makes.
func sumEnergy(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// EnergyComponents returns the component names sorted for stable reports.
func (c *Collector) EnergyComponents() []string {
	c.Flush()
	names := make([]string, 0, len(c.EnergyPJ))
	for k := range c.EnergyPJ {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Report is the immutable result of one simulation run.
type Report struct {
	Elapsed      sim.Time
	IPC          float64
	MeanLatency  sim.Time
	P99Latency   sim.Time
	CopyFraction float64
	Instructions uint64
	MemRequests  uint64
	Migrations   uint64
	RegularBytes uint64
	CopyBytes    uint64
	EnergyPJ     map[string]float64
	Extra        map[string]float64
}

// Snapshot freezes the collector into a Report for an elapsed run time.
func (c *Collector) Snapshot(elapsed sim.Time, coreFreqHz float64) Report {
	c.Flush()
	e := make(map[string]float64, len(c.EnergyPJ))
	for k, v := range c.EnergyPJ {
		e[k] = v
	}
	x := make(map[string]float64, len(c.Extra))
	for k, v := range c.Extra {
		x[k] = v
	}
	return Report{
		Elapsed:      elapsed,
		IPC:          c.IPC(elapsed, coreFreqHz),
		MeanLatency:  c.MemLatency.Mean(),
		P99Latency:   c.MemLatency.Percentile(99),
		CopyFraction: c.CopyFraction(),
		Instructions: c.Instructions,
		MemRequests:  c.MemRequests,
		Migrations:   c.Migrations,
		RegularBytes: c.ChannelBytes[RegularRequest],
		CopyBytes:    c.ChannelBytes[DataCopy],
		EnergyPJ:     e,
		Extra:        x,
	}
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("elapsed=%s ipc=%.3f memlat=%s copy=%.1f%% reqs=%d migr=%d",
		r.Elapsed, r.IPC, r.MeanLatency, 100*r.CopyFraction, r.MemRequests, r.Migrations)
}

// TotalEnergyPJ sums the report's component energies in sorted-key order
// (see sumEnergy).
func (r Report) TotalEnergyPJ() float64 {
	return sumEnergy(r.EnergyPJ)
}
