package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// This file keeps the per-instruction generator as the oracle for the
// record layout and the draws: refGenerate and refGeneratePhased are
// Generate and GeneratePhased as they were when a trace stored one entry
// per warp instruction, compute instructions included, took every decision
// with a Float64() compare and drew pages by binary search over the Zipf
// CDF; refMeasure is Measure over that stream. TestRecordsMatchReference
// checks that the records, expanded back to instructions, reproduce the
// stream exactly.

// Instr is one warp instruction of an expanded stream.
type Instr struct {
	Kind Kind
	Addr uint64
}

// expand turns one warp's records back into its instruction stream.
func expand(wt WarpTrace) []Instr {
	var out []Instr
	for _, op := range wt {
		for i := uint32(0); i < op.Run; i++ {
			out = append(out, Instr{Kind: Compute})
		}
		if op.Kind != Compute {
			out = append(out, Instr{Kind: op.Kind, Addr: op.Addr})
		}
	}
	return out
}

// refZipf draws a page rank by binary search for the first index whose
// CDF reaches a Float64 draw.
type refZipf struct {
	cdf []float64
	rng *sim.Rng
}

func (z refZipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refTrace is a trace in the per-instruction layout.
type refTrace struct {
	Warps     [][]Instr
	Footprint int64
	PageBytes int
}

func refGenerate(w config.Workload, c *config.Config) *refTrace {
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

	seqRun := 8
	if w.Suite == "GraphBIG" {
		seqRun = 2
	}

	t := &refTrace{
		Warps:     make([][]Instr, nWarps),
		Footprint: footprint,
		PageBytes: pageBytes,
	}

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
	cdf := sim.ZipfCDF(w.HotSkew, nPages)

	for wi := 0; wi < nWarps; wi++ {
		rng := sim.NewRng(c.Seed ^ uint64(wi)*0x9E3779B97F4A7C15 ^ hashName(w.Name))
		zipf := refZipf{cdf: cdf, rng: rng}
		tr := make([]Instr, 0, c.MaxInstructions)

		curPage := int(perm[zipf.Next()])
		curLine := rng.Intn(linesPerPage)
		run := 0
		for len(tr) < c.MaxInstructions {
			if rng.Float64() >= memProb {
				tr = append(tr, Instr{Kind: Compute})
				continue
			}
			if run >= seqRun || curLine >= linesPerPage {
				curPage = int(perm[zipf.Next()])
				curLine = rng.Intn(linesPerPage)
				run = 0
			}
			addr := uint64(curPage)*uint64(pageBytes) + uint64(curLine)*uint64(c.GPU.LineBytes)
			curLine++
			run++
			k := Store
			if rng.Float64() < w.ReadRatio {
				k = Load
			}
			tr = append(tr, Instr{Kind: k, Addr: addr})
		}
		t.Warps[wi] = tr
	}
	return t
}

func refGeneratePhased(w config.Workload, c *config.Config, phases int) *refTrace {
	if phases <= 1 {
		return refGenerate(w, c)
	}
	base := refGenerate(w, c)
	nPages := int(base.Footprint) / base.PageBytes
	if nPages < phases {
		return base
	}
	shift := nPages / phases
	for _, wt := range base.Warps {
		per := len(wt) / phases
		if per == 0 {
			continue
		}
		for i, in := range wt {
			if in.Kind == Compute {
				continue
			}
			phase := i / per
			if phase >= phases {
				phase = phases - 1
			}
			page := int(in.Addr)/base.PageBytes + phase*shift
			page %= nPages
			off := int(in.Addr) % base.PageBytes
			wt[i].Addr = uint64(page*base.PageBytes + off)
		}
	}
	return base
}

func refMeasure(t *refTrace) Stats {
	var s Stats
	pages := make(map[uint64]struct{})
	for _, w := range t.Warps {
		for _, in := range w {
			s.Instructions++
			switch in.Kind {
			case Load:
				s.MemOps++
				s.Loads++
				pages[in.Addr/uint64(t.PageBytes)] = struct{}{}
			case Store:
				s.MemOps++
				s.Stores++
				pages[in.Addr/uint64(t.PageBytes)] = struct{}{}
			}
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

// edgeWorkloads are inline workloads at the edges of Generate's draws:
// read ratios of 0 and 1, the lowest APKI and one the 0.95 memory-op cap
// clips, a uniform page distribution and a one-page footprint.
func edgeWorkloads() []config.Workload {
	base, _ := config.WorkloadByName("bfsdata")
	dense, _ := config.WorkloadByName("lud")
	var out []config.Workload
	for _, e := range []struct {
		name string
		edit func(*config.Workload)
	}{
		{"read-ratio-0", func(w *config.Workload) { w.ReadRatio = 0 }},
		{"read-ratio-1", func(w *config.Workload) { w.ReadRatio = 1 }},
		{"apki-1", func(w *config.Workload) { w.APKI = 1 }},
		{"apki-999", func(w *config.Workload) { w.APKI = 999 }},
		{"hot-skew-0", func(w *config.Workload) { w.HotSkew = 0 }},
		{"one-page", func(w *config.Workload) { w.FootprintScale = 1e-6 }},
	} {
		for _, w := range []config.Workload{base, dense} {
			w.Name = w.Name + "-" + e.name
			e.edit(&w)
			out = append(out, w)
		}
	}
	return out
}

// TestRecordsMatchReference: over every Table II workload and the edge
// workloads, with and without hot-set phases, two seeds and a short and a
// long budget, each warp's records expand to exactly the reference
// instruction stream, Measure agrees with the reference, and the records
// are canonical: only a warp's last record may be a Compute record, and it
// carries a non-empty run. The short budget leaves low-APKI warps with no
// memory op at all; the test checks that the grid reaches warps that start
// with a memory op and warps that end in a compute run.
func TestRecordsMatchReference(t *testing.T) {
	var startsWithOp, endsInRun, endsWithOp, computeOnly int
	for _, w := range append(config.Workloads(), edgeWorkloads()...) {
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, phases := range []int{1, 4} {
			for _, seed := range []uint64{1, 0x5eed} {
				for _, budget := range []int{37, 1000} {
					c := config.Default(config.OhmBase, config.Planar)
					c.Seed = seed
					c.MaxInstructions = budget
					got := GeneratePhased(w, &c, phases)
					want := refGeneratePhased(w, &c, phases)
					if len(got.Warps) != len(want.Warps) || got.Footprint != want.Footprint || got.PageBytes != want.PageBytes {
						t.Fatalf("%s/p%d/s%d/n%d: shape %d warps, %d B, %d B/page; reference %d, %d, %d",
							w.Name, phases, seed, budget, len(got.Warps), got.Footprint, got.PageBytes,
							len(want.Warps), want.Footprint, want.PageBytes)
					}
					for wi, wt := range got.Warps {
						for j, op := range wt {
							if op.Kind == Compute && (j != len(wt)-1 || op.Run == 0) {
								t.Fatalf("%s/p%d/s%d/n%d warp %d: non-canonical record %d of %d: %+v",
									w.Name, phases, seed, budget, wi, j, len(wt), op)
							}
						}
						ins := expand(wt)
						ref := want.Warps[wi]
						if len(ins) != len(ref) {
							t.Fatalf("%s/p%d/s%d/n%d warp %d: %d instructions, reference %d",
								w.Name, phases, seed, budget, wi, len(ins), len(ref))
						}
						for i := range ins {
							if ins[i] != ref[i] {
								t.Fatalf("%s/p%d/s%d/n%d warp %d instr %d: %+v, reference %+v",
									w.Name, phases, seed, budget, wi, i, ins[i], ref[i])
							}
						}
						switch {
						case wt[len(wt)-1].Kind == Compute && len(wt) == 1:
							computeOnly++
						case wt[len(wt)-1].Kind == Compute:
							endsInRun++
						default:
							endsWithOp++
						}
						if wt[0].Kind != Compute && wt[0].Run == 0 {
							startsWithOp++
						}
					}
					if g, r := got.Measure(), refMeasure(want); g != r {
						t.Fatalf("%s/p%d/s%d/n%d: Measure %+v, reference %+v", w.Name, phases, seed, budget, g, r)
					}
				}
			}
		}
	}
	if startsWithOp == 0 || endsInRun == 0 || endsWithOp == 0 || computeOnly == 0 {
		t.Fatalf("grid misses a warp shape: %d start with an op, %d end in a run, %d end with an op, %d compute only",
			startsWithOp, endsInRun, endsWithOp, computeOnly)
	}
}

// TestEdgeWorkloadsReachTheirEdges: each edge workload of
// TestRecordsMatchReference produces the stream its edge implies.
func TestEdgeWorkloadsReachTheirEdges(t *testing.T) {
	c := config.Default(config.OhmBase, config.Planar)
	c.MaxInstructions = 1000
	for _, w := range edgeWorkloads() {
		tr := Generate(w, &c)
		s := tr.Measure()
		cut := strings.IndexByte(w.Name, '-')
		base, _ := config.WorkloadByName(w.Name[:cut])
		var ok bool
		switch name := w.Name[cut+1:]; name {
		case "read-ratio-0":
			ok = s.Loads == 0 && s.Stores > 0
		case "read-ratio-1":
			ok = s.Stores == 0 && s.Loads > 0
		case "apki-1":
			ok = s.APKI < 5
		case "apki-999":
			ok = math.Abs(s.APKI-950) < 10
		case "hot-skew-0":
			ok = s.UniquePages > Generate(base, &c).Measure().UniquePages
		case "one-page":
			ok = tr.Footprint == int64(tr.PageBytes) && s.UniquePages == 1
		default:
			t.Fatalf("%s: no check for edge %q", w.Name, name)
		}
		if !ok {
			t.Errorf("%s: stream misses its edge: %+v, footprint %d B", w.Name, s, tr.Footprint)
		}
	}
}
