// Package trace generates synthetic GPU instruction traces calibrated to
// the paper's Table II workload characteristics. The paper drives MacSim
// with Rodinia, Polybench and GraphBIG traces; we do not have those, so we
// synthesize per-warp instruction streams that reproduce the published
// memory intensity (APKI), read ratio, working-set footprint and page
// hotness skew — the four properties the evaluation actually depends on.
//
// The package keeps two process-wide caches, both emptied by ResetCache.
// The trace registry (Cached, Pins) shares whole generated traces between
// cells. The page-table cache shares each (hot skew, page count)'s
// sim.ZipfTable, the distribution a trace draws its pages from, between
// every trace of that pair whatever its seed, budget or platform. Its
// tables are immutable. It holds at most zipfCachePages pages in all
// (about 12 MB) and empties itself before a new table would pass that; a
// table larger than the bound is built per trace and not kept.
package trace

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/sim"
)

// Kind classifies a warp instruction.
type Kind uint8

const (
	// Compute is an ALU instruction: one cycle, no memory traffic.
	Compute Kind = iota
	// Load is a memory read at Addr.
	Load
	// Store is a memory write at Addr.
	Store
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one memory instruction of a warp, preceded by Run compute
// instructions. Memory ops carry the (already coalesced) line-aligned
// address the warp accesses. A warp that ends in compute instructions
// closes with one record of Kind Compute that carries only that run; no
// other record has Kind Compute.
type Op struct {
	Addr uint64
	Run  uint32
	Kind Kind
}

// WarpTrace is the instruction stream of one warp, one record per memory
// instruction: compute instructions are stored only as run lengths.
type WarpTrace []Op

// Trace is a complete workload: one stream per resident warp plus the
// footprint the streams touch. All of a trace's records share one backing
// array.
type Trace struct {
	Name      string
	Warps     []WarpTrace
	Footprint int64 // bytes spanned by generated addresses
	PageBytes int
}

// Stats summarises a trace for calibration checks.
type Stats struct {
	Instructions int
	MemOps       int
	Loads        int
	Stores       int
	APKI         float64 // memory ops per kilo-instruction
	ReadRatio    float64
	UniquePages  int
}

// Measure recomputes the trace's aggregate characteristics.
func (t *Trace) Measure() Stats {
	var s Stats
	pages := make(map[uint64]struct{})
	for _, w := range t.Warps {
		for _, op := range w {
			s.Instructions += int(op.Run)
			if op.Kind == Compute {
				continue
			}
			s.Instructions++
			s.MemOps++
			if op.Kind == Store {
				s.Stores++
			} else {
				s.Loads++
			}
			pages[op.Addr/uint64(t.PageBytes)] = struct{}{}
		}
	}
	s.UniquePages = len(pages)
	if s.Instructions > 0 {
		s.APKI = float64(s.MemOps) / float64(s.Instructions) * 1000
	}
	if s.MemOps > 0 {
		s.ReadRatio = float64(s.Loads) / float64(s.MemOps)
	}
	return s
}

// GeneratePhased builds a trace whose hot set rotates through `phases`
// distinct regions over the run — the phase-changing behaviour that keeps
// planar migration active in steady state (iterative graph algorithms
// change their frontier every superstep). phases <= 1 degenerates to
// Generate.
func GeneratePhased(w config.Workload, c *config.Config, phases int) *Trace {
	if phases <= 1 {
		return Generate(w, c)
	}
	base := Generate(w, c)
	nPages := int(base.Footprint) / base.PageBytes
	if nPages < phases {
		return base
	}
	// Rotate each warp's pages by footprint/phases at each phase boundary:
	// the popularity distribution is preserved but the hot identities move.
	// Every warp issues MaxInstructions instructions. An op's index in its
	// warp's instruction stream is the sum of the runs up to its own plus
	// the number of ops before it.
	shift := nPages / phases
	per := c.MaxInstructions / phases
	if per == 0 {
		return base
	}
	for _, wt := range base.Warps {
		i := 0
		for j := range wt {
			op := &wt[j]
			i += int(op.Run)
			if op.Kind == Compute {
				continue
			}
			phase := i / per
			if phase >= phases {
				phase = phases - 1
			}
			page := int(op.Addr)/base.PageBytes + phase*shift
			page %= nPages
			off := int(op.Addr) % base.PageBytes
			op.Addr = uint64(page*base.PageBytes + off)
			i++
		}
	}
	return base
}

// Generate builds the synthetic trace for workload w under configuration c.
//
// Calibration strategy:
//   - memory-instruction probability = APKI/1000 (Table II is measured in
//     accesses per kilo-instruction);
//   - each memory op is a Load with probability ReadRatio;
//   - pages are drawn from a Zipf distribution with the workload's HotSkew,
//     over a footprint of FootprintScale x DRAM capacity — so every
//     heterogeneous workload oversubscribes DRAM and triggers migration;
//   - dense kernels (Rodinia/Polybench) emit sequential runs of lines within
//     a page (spatial locality -> cache hits); graph workloads emit short
//     runs (pointer chasing -> cache misses), which is what produces their
//     high effective APKI at the memory controller.
func Generate(w config.Workload, c *config.Config) *Trace {
	nWarps := c.GPU.SMs * c.GPU.WarpsPerSM
	footprint := int64(w.FootprintScale * config.FootprintUnit)
	if footprint < int64(c.Memory.PageBytes) {
		footprint = int64(c.Memory.PageBytes)
	}
	pageBytes := c.Memory.PageBytes
	nPages := int(footprint / int64(pageBytes))
	if nPages < 1 {
		nPages = 1
	}
	linesPerPage := pageBytes / c.GPU.LineBytes

	seqRun := 8 // dense kernels stream through pages
	if w.Suite == "GraphBIG" {
		seqRun = 2 // pointer chasing
	}

	t := &Trace{
		Name:      w.Name,
		Warps:     make([]WarpTrace, nWarps),
		Footprint: footprint,
		PageBytes: pageBytes,
	}

	// Popularity rank and page number must be de-correlated: hot data is
	// scattered across the address space, not packed at its start. A shared
	// deterministic permutation maps Zipf ranks to page numbers; without it
	// consecutive hot pages would collide in the same planar migration
	// group and fight over its single DRAM slot.
	perm := make([]int32, nPages)
	for i := range perm {
		perm[i] = int32(i)
	}
	prng := sim.NewRng(c.Seed ^ hashName(w.Name) ^ 0xBADC0FFEE)
	for i := nPages - 1; i > 0; i-- {
		j := prng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	memProb := float64(w.APKI) / 1000
	if memProb > 0.95 {
		memProb = 0.95
	}
	// Both per-instruction choices compare the raw draw with an integer
	// bound (sim.Prob): the same draws and outcomes as Float64() < p.
	memHit, loadHit := sim.NewProb(memProb), sim.NewProb(w.ReadRatio)

	// The page distribution depends only on (skew, nPages): every warp, and
	// every trace of the same (skew, nPages), shares one table.
	zipf := zipfTable(w.HotSkew, nPages)

	// One backing array holds every warp's records. It is sized for the
	// expected op count, four times its square root (at least four standard
	// deviations of the binomial count) and one trailing compute record per
	// warp, so append rarely has to move it.
	mean := float64(nWarps*c.MaxInstructions) * memProb
	ops := make([]Op, 0, int(mean+4*math.Sqrt(mean))+nWarps)

	for wi := 0; wi < nWarps; wi++ {
		rng := sim.NewRng(c.Seed ^ uint64(wi)*0x9E3779B97F4A7C15 ^ hashName(w.Name))
		start := len(ops)

		curPage := int(perm[zipf.Index(rng.Float64())])
		curLine := rng.Intn(linesPerPage)
		run := 0
		for left := c.MaxInstructions; ; {
			// The compute instructions before the next memory op, each
			// one draw that missed memHit.
			compute := rng.Misses(memHit, left)
			left -= compute
			if left == 0 {
				if compute > 0 {
					ops = append(ops, Op{Run: uint32(compute), Kind: Compute})
				}
				break
			}
			left-- // the memory op's draw hit
			// Memory op: continue the sequential run or pick a new page.
			if run >= seqRun || curLine >= linesPerPage {
				curPage = int(perm[zipf.Index(rng.Float64())])
				curLine = rng.Intn(linesPerPage)
				run = 0
			}
			addr := uint64(curPage)*uint64(pageBytes) + uint64(curLine)*uint64(c.GPU.LineBytes)
			curLine++
			run++
			k := Store
			if rng.Hit(loadHit) {
				k = Load
			}
			ops = append(ops, Op{Addr: addr, Run: uint32(compute), Kind: k})
		}
		t.Warps[wi] = ops[start:]
	}
	// Point every warp at the final array, in case append moved it.
	off := 0
	for wi, wt := range t.Warps {
		end := off + len(wt)
		t.Warps[wi] = ops[off:end:end]
		off = end
	}
	return t
}

// hashName folds a workload name into the RNG seed so two workloads with the
// same config still get distinct streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
