package cache

import (
	"math/rand"
	"testing"
)

// TestAccessMatchesReference drives Cache and the stamp-based refCache
// below with the same seeded streams of reads, writes and probes, and
// requires every Result, every probe answer and the final counters to
// match. It covers the mask and modulo set paths, direct-mapped, a single
// set and an odd way count; one Cache is rebuilt through NewIn for every
// geometry, so the pooled rebuild's clearing is exercised too. After each
// access the touched set must keep its invalid ways at the tail.
func TestAccessMatchesReference(t *testing.T) {
	geoms := []struct {
		name                  string
		size, ways, lineBytes int
	}{
		{"l1", 3 << 10, 6, 128},   // 4 sets: mask path
		{"l2", 384 << 10, 8, 128}, // 384 sets: modulo path
		{"direct-mapped", 4 << 10, 1, 64},
		{"one-set", 8 * 64, 8, 64},
		{"odd-ways", 12 * 5 * 32, 5, 32}, // 12 sets of 5 ways
	}
	const ops = 200_000
	var c *Cache
	for gi, g := range geoms {
		var err error
		if c, err = NewIn(c, g.name, g.size, g.ways, g.lineBytes); err != nil {
			t.Fatal(err)
		}
		ref := newRef(g.size, g.ways, g.lineBytes)
		rng := rand.New(rand.NewSource(int64(gi) + 1))
		lines := int64(g.size / g.lineBytes)
		for op := 0; op < ops; op++ {
			// Half the lines come from a footprint the cache holds, most
			// of the rest from one four times larger; one in ten sits
			// near 2^61 so the stored line addresses use the high bits.
			var line uint64
			switch r := rng.Intn(10); {
			case r < 5:
				line = uint64(rng.Int63n(lines))
			case r < 9:
				line = uint64(rng.Int63n(4 * lines))
			default:
				line = 1<<61/uint64(g.lineBytes) + uint64(rng.Int63n(2*lines))
			}
			addr := line*uint64(g.lineBytes) + uint64(rng.Intn(g.lineBytes))
			if rng.Intn(8) == 0 {
				if got, want := c.Probe(addr), ref.Probe(addr); got != want {
					t.Fatalf("%s op %d: Probe(%#x) = %v, reference %v", g.name, op, addr, got, want)
				}
				continue
			}
			write := rng.Intn(3) == 0
			if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
				t.Fatalf("%s op %d: Access(%#x, %v) = %+v, reference %+v", g.name, op, addr, write, got, want)
			}
			set := c.set(addr >> c.lineShift)
			for i := 1; i < len(set); i++ {
				if set[i-1] == 0 && set[i] != 0 {
					t.Fatalf("%s op %d: set %v has a valid way after an invalid one", g.name, op, set)
				}
			}
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evictions {
			t.Fatalf("%s: hits/misses/evictions = %d/%d/%d, reference %d/%d/%d",
				g.name, c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evictions)
		}
		if c.Hits == 0 || c.Evictions == 0 {
			t.Fatalf("%s: stream too weak: %d hits, %d dirty evictions", g.name, c.Hits, c.Evictions)
		}
	}
}

// refCache is the stamp-based cache the recency-ordered line array
// replaced, kept as a test-only oracle: parallel tag/flag/stamp arrays, a
// hit scan, then a victim scan that takes the first invalid way or else
// the way with the oldest stamp. TestAccessMatchesReference drives it and
// Cache with the same streams and requires identical results.
type refCache struct {
	lineBytes int
	sets      int
	ways      int
	stamp     uint64

	tags  []uint64
	flags []uint8
	lru   []uint64 // last-touch stamp; larger = more recent

	lineShift uint
	setShift  uint
	setMask   uint64
	setsPow2  bool

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

const (
	refValid uint8 = 1 << iota
	refDirty
)

// newRef builds a reference cache; the geometry must already have passed
// New's checks.
func newRef(sizeBytes, ways, lineBytes int) *refCache {
	nLines := sizeBytes / lineBytes
	sets := nLines / ways
	c := &refCache{
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		tags:      make([]uint64, nLines),
		flags:     make([]uint8, nLines),
		lru:       make([]uint64, nLines),
	}
	for 1<<c.lineShift < lineBytes {
		c.lineShift++
	}
	if sets&(sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = uint64(sets - 1)
		for 1<<c.setShift < sets {
			c.setShift++
		}
	}
	return c
}

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	if c.setsPow2 {
		return int(lineAddr & c.setMask), lineAddr >> c.setShift
	}
	return int(lineAddr % uint64(c.sets)), lineAddr / uint64(c.sets)
}

func (c *refCache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	base := set * c.ways
	c.stamp++

	// Hit path.
	for i := base; i < base+c.ways; i++ {
		if c.flags[i]&refValid != 0 && c.tags[i] == tag {
			c.lru[i] = c.stamp
			if write {
				c.flags[i] |= refDirty
			}
			c.Hits++
			return Result{Hit: true}
		}
	}

	// Miss: choose victim = invalid way or LRU.
	c.Misses++
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.flags[i]&refValid == 0 {
			victim = i
			oldest = 0
			break
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}

	var res Result
	if c.flags[victim]&(refValid|refDirty) == refValid|refDirty {
		res.WritebackValid = true
		res.Writeback = c.victimAddr(set, c.tags[victim])
		c.Evictions++
	}
	c.tags[victim] = tag
	f := refValid
	if write {
		f |= refDirty
	}
	c.flags[victim] = f
	c.lru[victim] = c.stamp
	return res
}

func (c *refCache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.flags[i]&refValid != 0 && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// victimAddr reconstructs a victim's byte address from set and tag.
func (c *refCache) victimAddr(set int, tag uint64) uint64 {
	lineAddr := tag*uint64(c.sets) + uint64(set)
	return lineAddr * uint64(c.lineBytes)
}
