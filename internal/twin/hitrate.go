// Cache hit-rate estimation for the analytical twin: a bucketed Zipf
// popularity model evaluated through Che's approximation with a cold-start
// (finite-stream) correction. The trace generator draws pages from
// sim.ZipfCDF(HotSkew, nPages) and walks lines within a page, so a page's
// reference probability is its Zipf mass and a line's is that mass divided
// by the lines per page — the twin never materializes the CDF, it evaluates
// the same distribution in closed form.
package twin

import (
	"math"
	"sync"
)

// zbucket groups a contiguous range of Zipf popularity ranks sharing one
// representative per-rank reference probability.
type zbucket struct {
	items float64 // ranks in the bucket
	p     float64 // per-rank reference probability (normalized)
}

// zipfDist is a bucketed Zipf(skew) popularity distribution over n ranks.
// The head ranks are exact (they carry most of the mass at Table II skews);
// the tail is grouped geometrically with bucket masses from a closed-form
// generalized harmonic sum, so building and evaluating the distribution is
// O(buckets) — the twin's whole budget is a few microseconds, not the
// O(n·iterations) a per-rank Che solve would cost.
type zipfDist struct {
	n       int
	p1      float64 // hottest rank's probability (channel-imbalance model)
	buckets []zbucket
}

// zipfExactHead is how many head ranks are computed exactly before the
// geometric tail bucketing starts.
const zipfExactHead = 32

// eulerGamma is the Euler–Mascheroni constant for the s=1 harmonic form.
const eulerGamma = 0.5772156649015329

// harmonic approximates the generalized harmonic number H(k,s) = Σ_{i≤k}
// i^-s by Euler–Maclaurin. Differences of this form give tail bucket
// masses; it is only evaluated for k ≥ zipfExactHead where the error is
// far below the model's other approximations.
func harmonic(k, s float64) float64 {
	if math.Abs(s-1) < 1e-9 {
		return math.Log(k) + eulerGamma + 1/(2*k) - 1/(12*k*k)
	}
	return (math.Pow(k, 1-s)-1)/(1-s) + (1+math.Pow(k, -s))/2 + s*(1-math.Pow(k, -s-1))/12
}

func newZipfDist(skew float64, n int) *zipfDist {
	if n < 1 {
		n = 1
	}
	d := &zipfDist{n: n}
	head := n
	if head > zipfExactHead {
		head = zipfExactHead
	}
	type raw struct{ items, w float64 }
	raws := make([]raw, 0, head+24)
	var total float64
	for i := 1; i <= head; i++ {
		w := math.Pow(float64(i), -skew)
		raws = append(raws, raw{1, w})
		total += w
	}
	if n > head {
		hLo := harmonic(float64(head), skew)
		for lo := head + 1; lo <= n; {
			hi := lo + lo/3 // geometric ratio ~4/3 keeps ~20 tail buckets at any n
			if hi > n {
				hi = n
			}
			hHi := harmonic(float64(hi), skew)
			mass := hHi - hLo
			if mass < 0 {
				mass = 0
			}
			items := float64(hi - lo + 1)
			raws = append(raws, raw{items, mass / items})
			total += mass
			hLo = hHi
			lo = hi + 1
		}
	}
	d.buckets = make([]zbucket, len(raws))
	for i, r := range raws {
		d.buckets[i] = zbucket{items: r.items, p: r.w / total}
	}
	d.p1 = d.buckets[0].p
	return d
}

// distCache memoizes distributions by (skew, n): a sweep reuses the same
// Table II workloads across thousands of cells exactly like the DES trace
// registry shares generated traces. Bounded so adversarial sweeps over
// footprint/skew axes cannot grow it without limit.
var (
	distMu    sync.Mutex
	distCache = map[distKey]*zipfDist{}
)

type distKey struct {
	skew float64
	n    int
}

const distCacheCap = 512

func cachedZipfDist(skew float64, n int) *zipfDist {
	key := distKey{skew, n}
	distMu.Lock()
	d := distCache[key]
	distMu.Unlock()
	if d != nil {
		return d
	}
	d = newZipfDist(skew, n)
	distMu.Lock()
	if len(distCache) < distCacheCap {
		distCache[key] = d
	}
	distMu.Unlock()
	return d
}

// distinct returns the expected number of distinct items touched by t
// references when every rank is split into `split` equally-popular
// sub-items (split=1 evaluates pages, split=linesPerPage evaluates lines).
func (d *zipfDist) distinct(t, split float64) float64 {
	var s float64
	for _, b := range d.buckets {
		q := b.p / split
		s += b.items * split * -math.Expm1(-q*t)
	}
	return s
}

// distinctDeriv is d(distinct)/dt, used by the Newton solve.
func (d *zipfDist) distinctDeriv(t, split float64) float64 {
	var s float64
	for _, b := range d.buckets {
		q := b.p / split
		s += b.items * split * q * math.Exp(-q*t)
	}
	return s
}

// cheT solves distinct(T) = capacity for Che's characteristic time. Since
// distinct is concave increasing and distinct(t) ≤ t, Newton from t=capacity
// converges monotonically from below in a handful of iterations. The result
// is clamped to the stream length: a cache that never fills within the run
// has an effective window of the whole run.
func (d *zipfDist) cheT(capacity, stream, split float64) float64 {
	if capacity <= 0 {
		return 0
	}
	if d.distinct(stream, split) <= capacity {
		return stream
	}
	t := capacity
	for i := 0; i < 16; i++ {
		f := d.distinct(t, split)
		if capacity-f <= 1e-4*capacity {
			break
		}
		df := d.distinctDeriv(t, split)
		if df <= 0 {
			break
		}
		nt := t + (capacity-f)/df
		if nt <= t {
			break
		}
		t = nt
		if t >= stream {
			return stream
		}
	}
	return t
}

// hitT returns the expected hit rate over a finite stream given a
// characteristic time T. Steady-state Che says a reference to an item with
// rate q hits with probability 1−e^(−qT); the finite-stream correction
// removes each item's compulsory first reference (probability 1−e^(−q·m)
// of appearing at all), which dominates on short calibration runs where
// the working set is touched mostly once.
func (d *zipfDist) hitT(t, stream, split float64) float64 {
	if stream <= 0 {
		return 0
	}
	// A characteristic time spanning the whole run means the cache never
	// fills: nothing is evicted, so every non-compulsory reference hits.
	full := t >= stream
	var hits float64
	for _, b := range d.buckets {
		q := b.p / split
		refs := q * stream
		fill := 1.0
		if !full {
			fill = -math.Expm1(-q * t)
		}
		first := -math.Expm1(-refs)
		h := fill * (refs - first)
		if h > 0 {
			hits += b.items * split * h
		}
	}
	h := hits / stream
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// hit estimates the LRU hit rate of a cache with `capacity` item slots over
// a cold-start reference stream of the given length.
func (d *zipfDist) hit(capacity, stream, split float64) float64 {
	return d.hitT(d.cheT(capacity, stream, split), stream, split)
}

// fifoHit estimates the hit rate of a FIFO-evicting cache of `capacity`
// item slots over a cold-start stream. FIFO (like RANDOM) cannot
// preferentially retain hot items the way LRU does: King's approximation
// makes an item's steady-state occupancy rational in its reference rate —
// qT/(1+qT) — rather than LRU's exponential 1−e^(−qT), which materially
// lowers hit rates on skewed streams. T solves Σ occupancy = capacity.
func (d *zipfDist) fifoHit(capacity, stream, split float64) float64 {
	if capacity <= 0 || stream <= 0 {
		return 0
	}
	if d.distinct(stream, split) <= capacity {
		return d.hitT(stream, stream, split) // never fills: compulsory only
	}
	// Newton solve from below: f(T) = Σ qT/(1+qT) is concave increasing
	// with f(T) ≤ T, so starting at T = capacity converges monotonically.
	t := capacity
	for i := 0; i < 16; i++ {
		var f, df float64
		for _, b := range d.buckets {
			q := b.p / split
			qt := q * t
			f += b.items * split * qt / (1 + qt)
			df += b.items * split * q / ((1 + qt) * (1 + qt))
		}
		if capacity-f <= 1e-4*capacity || df <= 0 {
			break
		}
		nt := t + (capacity-f)/df
		if nt <= t {
			break
		}
		t = nt
	}
	var hits float64
	for _, b := range d.buckets {
		q := b.p / split
		refs := q * stream
		occ := q * t / (1 + q*t)
		first := -math.Expm1(-refs)
		if h := occ * (refs - first); h > 0 {
			hits += b.items * split * h
		}
	}
	h := hits / stream
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// missTopShare returns the hottest rank's share of the *miss* stream of a
// cache with characteristic time t. The channel never sees raw popularity:
// the hottest page's lines are almost always cache-resident, so its share
// of post-cache traffic collapses toward its compulsory misses while
// mid-popularity ranks dominate the miss mix.
func (d *zipfDist) missTopShare(t, stream, split float64) float64 {
	if stream <= 0 {
		return d.p1
	}
	var top, total float64
	for i, b := range d.buckets {
		q := b.p / split
		refs := q * stream
		fill := -math.Expm1(-q * t)
		first := -math.Expm1(-refs)
		h := fill * (refs - first)
		if h < 0 {
			h = 0
		}
		m := refs - h
		if m < 0 {
			m = 0
		}
		total += b.items * split * m
		if i == 0 {
			top = split * m
		}
	}
	if total <= 0 {
		return d.p1
	}
	return top / total
}

// dramResidency models planar hot-page migration: pages whose expected
// reference count reaches the hot threshold eventually swap into DRAM
// (hottest first, bounded by maxPages — DRAM slots or the swap-rate
// ceiling). A page that swaps after its thresh-th access is DRAM-resident
// for roughly the remaining 1−thresh/refs of its references. Returns the
// number of swapped pages and the fraction of all references they absorb
// while resident.
func (d *zipfDist) dramResidency(maxPages, refs, thresh float64) (pages, frac float64) {
	if refs <= 0 || maxPages <= 0 {
		return 0, 0
	}
	for _, b := range d.buckets {
		if pages >= maxPages {
			break
		}
		r := b.p * refs
		if r < thresh {
			break // buckets are hottest-first; colder ones never trip
		}
		take := b.items
		if pages+take > maxPages {
			take = maxPages - pages
		}
		resident := 1 - thresh/r
		if resident > 0 {
			frac += take * b.p * resident
		}
		pages += take
	}
	return pages, frac
}

// CacheHitRate estimates the finite-stream LRU hit rate of a cache of
// capacityLines lines serving `accesses` references whose pages follow a
// Zipf(skew) distribution over `pages` pages of `linesPerPage` lines each —
// the exact address process the trace generator produces. It is the
// estimator the twin uses for L1/L2/DRAM-cache hit rates, exported so the
// calibration tests can pin its edge behaviour (single page, skew→0,
// skew→∞, working set smaller than the cache) against measured DES runs.
func CacheHitRate(skew float64, pages, linesPerPage, capacityLines int, accesses float64) float64 {
	if pages < 1 || linesPerPage < 1 || capacityLines < 1 || accesses <= 0 {
		return 0
	}
	d := cachedZipfDist(skew, pages)
	return d.hit(float64(capacityLines), accesses, float64(linesPerPage))
}
