// Edge-behaviour tests for the twin's Zipf/Che cache hit-rate estimator:
// degenerate single-page traces, the skew→0 (uniform) and skew→∞ (single
// hot page) limits, and working sets smaller than the cache. The pure
// closed-form cases are checked against an independent uniform-IRM
// implementation; the composite L1/L2 estimates are pinned against hit
// rates measured from short event-simulator runs of the same workloads.
package calib

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/twin"
)

func TestCacheHitRateDegenerateArgs(t *testing.T) {
	cases := []struct {
		name                          string
		pages, linesPerPage, capacity int
		accesses                      float64
	}{
		{"zero pages", 0, 32, 1024, 1e6},
		{"zero lines per page", 64, 0, 1024, 1e6},
		{"zero capacity", 64, 32, 0, 1e6},
		{"negative capacity", 64, 32, -5, 1e6},
		{"zero accesses", 64, 32, 1024, 0},
		{"negative accesses", 64, 32, 1024, -1},
	}
	for _, c := range cases {
		if got := twin.CacheHitRate(0.8, c.pages, c.linesPerPage, c.capacity, c.accesses); got != 0 {
			t.Errorf("%s: CacheHitRate = %v, want 0", c.name, got)
		}
	}
}

// uniformHitRate is an independent closed-form implementation of the
// estimator for the uniform (skew=0) special case: n equally-popular lines,
// Che characteristic time T solving n(1−e^(−T/n)) = capacity, steady-state
// hit probability 1−e^(−T/n) = capacity/n, and the same finite-stream
// compulsory-miss correction the estimator applies.
func uniformHitRate(lines, capacity int, accesses float64) float64 {
	n := float64(lines)
	fill := float64(capacity) / n
	if float64(capacity) >= n*-math.Expm1(-accesses/n) {
		fill = 1 // never fills within the stream: only compulsory misses
	}
	refs := accesses / n
	first := -math.Expm1(-refs)
	h := fill * (refs - first) * n / accesses
	return math.Min(1, math.Max(0, h))
}

func TestCacheHitRateUniformLimit(t *testing.T) {
	const pages, lpp = 4096, 32
	for _, cap := range []int{512, 8192, 65536} {
		for _, accesses := range []float64{1e4, 1e6} {
			got := twin.CacheHitRate(0, pages, lpp, cap, accesses)
			want := uniformHitRate(pages*lpp, cap, accesses)
			if math.Abs(got-want) > 1e-3 {
				t.Errorf("skew=0 cap=%d accesses=%g: CacheHitRate %.6f != uniform closed form %.6f",
					cap, accesses, got, want)
			}
		}
	}
}

func TestCacheHitRateSinglePage(t *testing.T) {
	const lpp = 32
	// One page of lpp lines: the page-level Zipf collapses to a point mass
	// and the line stream is uniform over lpp lines, at any skew.
	for _, skew := range []float64{0, 0.8, 3} {
		got := twin.CacheHitRate(skew, 1, lpp, 2*lpp, 1e5)
		want := uniformHitRate(lpp, 2*lpp, 1e5)
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("single page skew=%g: CacheHitRate %.6f != uniform-over-lines %.6f", skew, got, want)
		}
	}
	// With far more references than lines, almost everything hits.
	if got := twin.CacheHitRate(0.8, 1, lpp, 2*lpp, 1e6); got < 0.999 {
		t.Errorf("single hot page with 1e6 references: hit rate %.6f, want ≥ 0.999", got)
	}
}

func TestCacheHitRateExtremeSkewLimit(t *testing.T) {
	// skew→∞ concentrates all mass on the hottest page: the estimate must
	// converge to the single-page trace with the same line geometry.
	const pages, lpp, cap = 4096, 32, 64
	got := twin.CacheHitRate(50, pages, lpp, cap, 1e5)
	want := twin.CacheHitRate(50, 1, lpp, cap, 1e5)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("skew=50 over %d pages: hit %.8f, want single-page limit %.8f", pages, got, want)
	}
	// And skew must help a small cache monotonically: a more concentrated
	// stream can never hit less under LRU.
	prev := -1.0
	for _, skew := range []float64{0, 0.5, 1, 2, 4, 8} {
		h := twin.CacheHitRate(skew, pages, lpp, cap, 1e6)
		if h < 0 || h > 1 {
			t.Fatalf("skew=%g: hit rate %v outside [0,1]", skew, h)
		}
		if h < prev-1e-9 {
			t.Errorf("hit rate fell from %.6f to %.6f as skew rose to %g", prev, h, skew)
		}
		prev = h
	}
}

func TestCacheHitRateWorkingSetFitsInCache(t *testing.T) {
	// Working set strictly smaller than the cache: nothing is ever evicted,
	// so the only misses are compulsory — hit = 1 − E[distinct]/accesses.
	const pages, lpp = 16, 32
	accesses := 1e5
	got := twin.CacheHitRate(0.8, pages, lpp, 10*pages*lpp, accesses)
	if got < 0.99 {
		t.Fatalf("working set %d lines inside a %d-line cache: hit %.6f, want ≥ 0.99",
			pages*lpp, 10*pages*lpp, got)
	}
	// The miss count must be bounded by the working-set size (every line
	// can miss at most once), and the bound must be nearly tight here.
	misses := (1 - got) * accesses
	if ws := float64(pages * lpp); misses > ws+1e-6 {
		t.Errorf("compulsory-only misses %.2f exceed working set %g", misses, ws)
	}
	// Capacity is irrelevant once the working set fits: doubling it again
	// must not change the estimate.
	if h2 := twin.CacheHitRate(0.8, pages, lpp, 20*pages*lpp, accesses); math.Abs(h2-got) > 1e-9 {
		t.Errorf("hit rate changed with surplus capacity: %.9f vs %.9f", got, h2)
	}
}

// TestHitRateEdgesAgainstDES pins the twin's composite L1/L2 hit-rate
// estimates against rates measured from short event-simulator runs at each
// estimator edge: a degenerate single-page trace, skew→0, extreme skew, and
// a working set that fits inside the L2.
func TestHitRateEdgesAgainstDES(t *testing.T) {
	onePage := float64(4<<10) / float64(config.FootprintUnit)
	cases := []config.Workload{
		{Name: "single-page", APKI: 100, ReadRatio: 0.7, FootprintScale: onePage, HotSkew: 0.8},
		{Name: "uniform", APKI: 100, ReadRatio: 0.7, FootprintScale: 2.0, HotSkew: 0},
		{Name: "extreme-skew", APKI: 100, ReadRatio: 0.7, FootprintScale: 2.0, HotSkew: 6.0},
		{Name: "fits-in-l2", APKI: 100, ReadRatio: 0.7, FootprintScale: float64(512<<10) / float64(config.FootprintUnit), HotSkew: 0.8},
	}
	const tol = 0.06 // absolute hit-rate error vs. the measured run
	st := core.AcquireRunState()
	defer core.ReleaseRunState(st)
	cfg := config.Default(config.OhmBase, config.Planar)
	for _, w := range cases {
		rep, _, err := core.Run(st, cfg, w, core.DefaultRun)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		l1, l2 := twin.HitRates(&cfg, w)
		if d := math.Abs(l1 - rep.Extra["l1-hit-rate"]); d > tol {
			t.Errorf("%s: twin L1 hit rate %.4f vs measured %.4f (|Δ| %.4f > %.2f)",
				w.Name, l1, rep.Extra["l1-hit-rate"], d, tol)
		}
		if d := math.Abs(l2 - rep.Extra["l2-hit-rate"]); d > tol {
			t.Errorf("%s: twin L2 hit rate %.4f vs measured %.4f (|Δ| %.4f > %.2f)",
				w.Name, l2, rep.Extra["l2-hit-rate"], d, tol)
		}
	}
}
