// Package cache implements the set-associative caches of the baseline GPU
// (per-SM L1D and the shared L2, Figure 2). The model is functional +
// timing-annotated: lookups report hit/miss and evicted dirty victims; the
// GPU model charges the configured latencies and forwards misses down the
// hierarchy.
package cache

import "fmt"

// Cache is a blocking set-associative write-back cache with LRU replacement.
// Addresses are byte addresses below 2^62; the cache operates on aligned
// lines.
type Cache struct {
	name      string
	lineBytes int
	sets      int
	ways      int

	// lines holds each set as one run of ways entries (row-major by set)
	// in recency order: the most recently used line first, the LRU victim
	// last. An entry is (lineAddr+1)<<1 | dirty and 0 is an invalid way.
	// Invalid ways always sit at the set's tail, so they fill before any
	// valid line is evicted.
	lines []uint64

	// Index fast path: line size is always a power of two, so the line
	// split is a shift; when the set count is also a power of two the set
	// is a mask instead of a modulo. (Non-power-of-two set counts — the
	// scaled 6MB L2 — keep the modulo path; both pick the same set.)
	lineShift uint
	setMask   uint64
	setsPow2  bool

	Hits   uint64
	Misses uint64
	// Evictions counts dirty write-backs produced by fills.
	Evictions uint64
}

// New builds a cache of size bytes with the given associativity and line
// size. Size must divide evenly into sets of full associativity.
func New(name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	return NewIn(nil, name, sizeBytes, ways, lineBytes)
}

// NewIn is New rebuilding into a recycled cache: re's line array is kept
// when its capacity covers the new geometry (cleared, so the rebuilt cache
// is observationally identical to a fresh one) and the struct itself is
// reinitialized in place. re == nil allocates fresh — New is exactly
// NewIn(nil, ...), so pooled and fresh construction share one code path.
func NewIn(re *Cache, name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry (%d/%d/%d)", name, sizeBytes, ways, lineBytes)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineBytes)
	}
	nLines := sizeBytes / lineBytes
	if nLines == 0 || nLines%ways != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible into %d ways", name, nLines, ways)
	}
	// Set counts need not be powers of two: indexing is modulo, which is
	// what real non-power-of-two LLCs (e.g. 6 MB shared L2) do.
	sets := nLines / ways
	if re == nil {
		re = &Cache{}
	}
	c := re
	lines := c.lines
	if cap(lines) < nLines {
		lines = make([]uint64, nLines)
	} else {
		lines = lines[:nLines]
		clear(lines)
	}
	*c = Cache{
		name:      name,
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		lines:     lines,
	}
	for 1<<c.lineShift < lineBytes {
		c.lineShift++
	}
	if sets&(sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = uint64(sets - 1)
	}
	return c, nil
}

// MustNew is New that panics; used for configurations already validated by
// config.Validate.
func MustNew(name string, sizeBytes, ways, lineBytes int) *Cache {
	c, err := New(name, sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// set returns the ways of the set lineAddr maps to, most recent first.
func (c *Cache) set(lineAddr uint64) []uint64 {
	s := lineAddr & c.setMask
	if !c.setsPow2 {
		s = lineAddr % uint64(c.sets)
	}
	base := int(s) * c.ways
	return c.lines[base : base+c.ways]
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback holds the byte address of a dirty victim that must be
	// written to the next level; WritebackValid reports whether one exists.
	Writeback      uint64
	WritebackValid bool
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr, filling on miss. Dirty victims are reported, not
// silently dropped — the caller owns the write-back traffic.
func (c *Cache) Access(addr uint64, write bool) Result {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr)
	key := (lineAddr + 1) << 1
	var dirty uint64
	if write {
		dirty = 1
	}

	// One pass shifts the set down one way, front first, until it meets
	// the line: a hit then puts the line at the front. A miss shifts the
	// whole set, so the new line sits at the front and the entry pushed
	// off the tail — the LRU line, or an invalid way — is the victim.
	prev := key | dirty
	for i, e := range set {
		set[i] = prev
		if e&^1 == key {
			set[0] = e | dirty
			c.Hits++
			return Result{Hit: true}
		}
		prev = e
	}
	c.Misses++
	var res Result
	if prev&1 != 0 {
		res.WritebackValid = true
		res.Writeback = (prev>>1 - 1) << c.lineShift
		c.Evictions++
	}
	return res
}

// Probe reports whether addr currently hits, without touching LRU state or
// counters; tests use it to check residency.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	key := (lineAddr + 1) << 1
	for _, e := range c.set(lineAddr) {
		if e&^1 == key {
			return true
		}
	}
	return false
}

// HitRate returns hits/(hits+misses), or 0 when untouched.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
