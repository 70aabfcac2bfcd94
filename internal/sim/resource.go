package sim

import "math"

// Resource models a serially-occupied shared resource such as an optical
// virtual channel, a DRAM bank data bus, or a DMA engine. Callers reserve an
// occupancy window; the resource tracks the earliest time a new occupancy
// can begin and accumulates total busy time for bandwidth accounting.
//
// Resource implements FCFS semantics: a reservation made at time t begins at
// max(t, freeAt) and pushes freeAt forward by the duration. This is the
// standard first-order queueing model used by memory-channel simulators.
type Resource struct {
	freeAt Time
	busy   Time // accumulated occupied picoseconds
}

// NewResource returns an idle resource.
func NewResource() *Resource { return &Resource{} }

// FreeAt returns the earliest time a new occupancy can start.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Busy returns the total occupied time so far.
func (r *Resource) Busy() Time { return r.busy }

// Reserve books the resource for dur starting no earlier than at, returning
// the start and end times of the granted window.
func (r *Resource) Reserve(at, dur Time) (start, end Time) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// ReserveAt books the resource for [at, at+dur) unconditionally, moving
// freeAt forward if needed. Used when an external arbiter has already
// resolved conflicts (e.g. the photonic demultiplexer grants exclusivity).
func (r *Resource) ReserveAt(at, dur Time) (start, end Time) {
	end = at + dur
	if end > r.freeAt {
		r.freeAt = end
	}
	r.busy += dur
	return at, end
}

// Reset clears occupancy accounting (used between kernels).
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
}

// Utilization returns busy/elapsed in [0,1]; elapsed <= 0 yields 0.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Rng is a SplitMix64 pseudo-random generator. Every stochastic choice in
// the simulator draws from a seeded Rng so runs are reproducible; we do not
// use math/rand because its global state would couple unrelated components.
type Rng struct{ state uint64 }

// NewRng seeds a generator. Distinct components should use distinct seeds
// derived from the configuration seed (e.g. seed ^ componentID).
func NewRng(seed uint64) *Rng { return &Rng{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// mix is SplitMix64's output function of a state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Prob is a probability p held as an integer bound on a draw: ceil(p·2^53),
// clamped to [0, 2^53]. Float64 divides a draw's top 53 bits by 2^53, so
// for any draw x, x>>11 < Prob(p) holds exactly when Float64 would return a
// value below p. Hit and Misses test draws against it without converting
// them to floats.
type Prob uint64

// NewProb converts p. p <= 0 (and NaN) never hits; p >= 1 always does.
func NewProb(p float64) Prob {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Prob(math.Ceil(p * (1 << 53)))
}

// Hit draws once and reports whether the draw falls below p: the same
// draw and the same answer as r.Float64() < p.
func (r *Rng) Hit(p Prob) bool { return r.Uint64()>>11 < uint64(p) }

// Misses draws until one draw hits p or limit draws have missed, and
// returns the number of misses. A result below limit means the draw after
// the misses hit, and that draw has been consumed. It makes the same draws
// as a loop of Hit calls, with the generator state in a register. It is
// kept out of line: inlined into a caller with many live values, its loop
// spilled the state and the count to the stack on every draw.
//
//go:noinline
func (r *Rng) Misses(p Prob, limit int) int {
	s := r.state
	n := 0
	for ; n < limit; n++ {
		s += 0x9e3779b97f4a7c15
		if mix(s)>>11 < uint64(p) {
			break
		}
	}
	r.state = s
	return n
}

// ZipfCDF computes the CDF of a Zipf distribution with skew s over ranks
// [0, n): rank i has weight 1/(i+1)^s. Its last entry is exactly 1.
func ZipfCDF(s float64, n int) []float64 {
	if n <= 0 {
		panic("sim: ZipfCDF with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// ZipfTable draws ranks from the Zipf distribution of ZipfCDF(s, n) by
// inverting its CDF. Higher s concentrates mass on small ranks; graph
// workloads (pagerank, sssp) use s≈1.15–1.35 to model hot vertices, which
// is what drives migration in the paper's planar mode.
//
// A guide table (Chen and Asau's indexed search) replaces a binary search
// over the CDF: bucket j holds the first rank whose CDF, times n, reaches
// j, and a lookup of u starts at bucket int(u·n) and walks up, about two
// compares on average. Scaling and truncation are monotone, so the bucket
// never starts past the rank a binary search finds, and the walk stops at
// that rank.
//
// A table is immutable once built and safe to share between goroutines.
type ZipfTable struct {
	cdf []float64
	// guide has n+1 buckets, so that u = 1 has one too. Ranks fit in
	// int32: traces cap their page count at 2^23.
	guide []int32
	scale float64 // n
}

// NewZipfTable builds the table for skew s over [0, n); n must be positive.
func NewZipfTable(s float64, n int) *ZipfTable {
	cdf := ZipfCDF(s, n)
	z := &ZipfTable{cdf: cdf, guide: make([]int32, n+1), scale: float64(n)}
	i := 0
	for j := range z.guide {
		for i < n-1 && cdf[i]*z.scale < float64(j) {
			i++
		}
		z.guide[j] = int32(i)
	}
	return z
}

// Index returns the first rank whose CDF reaches u, or n-1 if none does,
// for u in [0, 1]. Index(r.Float64()) draws a rank.
func (z *ZipfTable) Index(u float64) int {
	i, last := int(z.guide[int(u*z.scale)]), len(z.cdf)-1
	for i < last && z.cdf[i] < u {
		i++
	}
	return i
}
