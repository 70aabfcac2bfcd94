package trace

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func testConfig() config.Config {
	c := config.Default(config.OhmBase, config.Planar)
	c.MaxInstructions = 4000
	return c
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestGenerateShape(t *testing.T) {
	c := testConfig()
	w, _ := config.WorkloadByName("pagerank")
	tr := Generate(w, &c)
	if len(tr.Warps) != c.GPU.SMs*c.GPU.WarpsPerSM {
		t.Fatalf("warps = %d, want %d", len(tr.Warps), c.GPU.SMs*c.GPU.WarpsPerSM)
	}
	for i, wt := range tr.Warps {
		if n := len(expand(wt)); n != c.MaxInstructions {
			t.Fatalf("warp %d has %d instructions, want %d", i, n, c.MaxInstructions)
		}
	}
	// The footprint must dwarf the L2 so the memory system under study stays
	// exercised; the planar group layout (1 DRAM page per 8 XPoint pages)
	// provides XPoint exposure regardless of footprint:DRAM ratio.
	if tr.Footprint < 4*int64(c.GPU.L2SizeBytes) {
		t.Fatalf("pagerank footprint %d too small versus L2 %d", tr.Footprint, c.GPU.L2SizeBytes)
	}
}

func TestGenerateCalibration(t *testing.T) {
	// The measured APKI and read ratio of every generated trace must land
	// near Table II. APKI is capped at 950 by the generator, so pagerank
	// (599) and GRAMS (266) must still match closely.
	c := testConfig()
	for _, w := range config.Workloads() {
		tr := Generate(w, &c)
		s := tr.Measure()
		wantAPKI := float64(w.APKI)
		if wantAPKI > 950 {
			wantAPKI = 950
		}
		if math.Abs(s.APKI-wantAPKI) > 0.15*wantAPKI+10 {
			t.Errorf("%s: APKI = %.1f, want about %.0f", w.Name, s.APKI, wantAPKI)
		}
		if math.Abs(s.ReadRatio-w.ReadRatio) > 0.05 {
			t.Errorf("%s: read ratio = %.3f, want about %.2f", w.Name, s.ReadRatio, w.ReadRatio)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	c := testConfig()
	w, _ := config.WorkloadByName("bfsdata")
	a := Generate(w, &c)
	b := Generate(w, &c)
	if len(a.Warps) != len(b.Warps) {
		t.Fatal("nondeterministic warp count")
	}
	for i := range a.Warps {
		for j := range a.Warps[i] {
			if a.Warps[i][j] != b.Warps[i][j] {
				t.Fatalf("trace diverges at warp %d instr %d", i, j)
			}
		}
	}
}

func TestGenerateDistinctWorkloads(t *testing.T) {
	c := testConfig()
	w1, _ := config.WorkloadByName("backp")
	w2, _ := config.WorkloadByName("pagerank")
	a, b := Generate(w1, &c), Generate(w2, &c)
	same := true
	for j := 0; j < 100 && j < len(a.Warps[0]) && j < len(b.Warps[0]); j++ {
		if a.Warps[0][j] != b.Warps[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different workloads generated identical streams")
	}
}

func TestAddressesLineAlignedAndInFootprint(t *testing.T) {
	c := testConfig()
	for _, name := range []string{"lud", "sssp"} {
		w, _ := config.WorkloadByName(name)
		tr := Generate(w, &c)
		for _, wt := range tr.Warps {
			for _, in := range wt {
				if in.Kind == Compute {
					if in.Addr != 0 {
						t.Fatalf("%s: compute instr carries address %#x", name, in.Addr)
					}
					continue
				}
				if in.Addr%uint64(c.GPU.LineBytes) != 0 {
					t.Fatalf("%s: address %#x not line-aligned", name, in.Addr)
				}
				if in.Addr >= uint64(tr.Footprint) {
					t.Fatalf("%s: address %#x outside footprint %d", name, in.Addr, tr.Footprint)
				}
			}
		}
	}
}

func TestGraphWorkloadsHotterThanDense(t *testing.T) {
	// GraphBIG traces must concentrate accesses on fewer pages than dense
	// kernels relative to footprint: that skew is what drives migration.
	c := testConfig()
	pr, _ := config.WorkloadByName("pagerank")
	lud, _ := config.WorkloadByName("lud")
	sPR := Generate(pr, &c).Measure()
	sLud := Generate(lud, &c).Measure()
	if sPR.MemOps == 0 || sLud.MemOps == 0 {
		t.Fatal("no memory ops generated")
	}
	prPagesPerOp := float64(sPR.UniquePages) / float64(sPR.MemOps)
	ludPagesPerOp := float64(sLud.UniquePages) / float64(sLud.MemOps)
	if prPagesPerOp >= ludPagesPerOp {
		t.Fatalf("pagerank (%.4f pages/op) should be more concentrated than lud (%.4f)",
			prPagesPerOp, ludPagesPerOp)
	}
}

func TestMeasureEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", PageBytes: 4096}
	s := tr.Measure()
	if s.Instructions != 0 || s.APKI != 0 || s.ReadRatio != 0 {
		t.Fatalf("empty trace stats wrong: %+v", s)
	}
}

func TestFootprintFloor(t *testing.T) {
	c := testConfig()
	w := config.Workload{Name: "tiny", APKI: 100, ReadRatio: 0.5, FootprintScale: 0, HotSkew: 1}
	tr := Generate(w, &c)
	if tr.Footprint < int64(c.Memory.PageBytes) {
		t.Fatalf("footprint %d below one page", tr.Footprint)
	}
}

// Property: for arbitrary APKI/read-ratio combinations the generator obeys
// its own calibration contract.
func TestGenerateCalibrationProperty(t *testing.T) {
	c := testConfig()
	c.MaxInstructions = 3000
	f := func(apkiSeed, rrSeed uint16) bool {
		apki := int(apkiSeed%900) + 20
		rr := float64(rrSeed%100) / 100
		w := config.Workload{
			Name: "prop", APKI: apki, ReadRatio: rr,
			FootprintScale: 2, HotSkew: 0.8, Suite: "GraphBIG",
		}
		s := Generate(w, &c).Measure()
		if math.Abs(s.APKI-float64(apki)) > 0.2*float64(apki)+15 {
			return false
		}
		if s.MemOps > 0 && math.Abs(s.ReadRatio-rr) > 0.08 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePhasedRotatesHotSet(t *testing.T) {
	c := testConfig()
	w, _ := config.WorkloadByName("pagerank")
	// Phase 1 vs phase 4: the trace keeps its calibration but the hottest
	// pages of the first half must differ from the second half's.
	tr := GeneratePhased(w, &c, 4)
	s := tr.Measure()
	if math.Abs(s.APKI-599) > 120 {
		t.Fatalf("phased trace broke APKI calibration: %.1f", s.APKI)
	}
	hot := func(fromFrac, toFrac float64) map[uint64]int {
		counts := map[uint64]int{}
		for _, wt := range tr.Warps {
			ins := expand(wt)
			lo, hi := int(fromFrac*float64(len(ins))), int(toFrac*float64(len(ins)))
			for _, in := range ins[lo:hi] {
				if in.Kind != Compute {
					counts[in.Addr/uint64(tr.PageBytes)]++
				}
			}
		}
		return counts
	}
	first, last := hot(0, 0.25), hot(0.75, 1.0)
	top := func(m map[uint64]int) uint64 {
		var best uint64
		bestC := -1
		for p, c := range m {
			if c > bestC {
				best, bestC = p, c
			}
		}
		return best
	}
	if top(first) == top(last) {
		t.Fatal("phased trace's hottest page did not move between phases")
	}
}

func TestGeneratePhasedDegenerate(t *testing.T) {
	c := testConfig()
	w, _ := config.WorkloadByName("lud")
	a := Generate(w, &c)
	b := GeneratePhased(w, &c, 1)
	if len(a.Warps) != len(b.Warps) || a.Warps[0][0] != b.Warps[0][0] {
		t.Fatal("phases=1 must equal Generate")
	}
}
