package cache

import (
	"testing"
	"testing/quick"
)

func mk(t *testing.T, size, ways, lineB int) *Cache {
	t.Helper()
	c, err := New("t", size, ways, lineB)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []struct {
		size, ways, lineB int
	}{
		{0, 1, 64},
		{1024, 0, 64},
		{1024, 1, 0},
		{1024, 1, 96}, // non-pow2 line
		{1024, 3, 64}, // 16 lines not divisible by 3 ways
	}
	for _, b := range bad {
		if _, err := New("x", b.size, b.ways, b.lineB); err == nil {
			t.Errorf("New(%d,%d,%d) accepted bad geometry", b.size, b.ways, b.lineB)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on bad geometry")
		}
	}()
	MustNew("x", 0, 1, 64)
}

func TestGeometryAccessors(t *testing.T) {
	c := mk(t, 8192, 4, 64) // 128 lines, 32 sets
	if c.Sets() != 32 || c.Ways() != 4 || c.LineBytes() != 64 || c.Name() != "t" {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineBytes())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mk(t, 1024, 2, 64)
	r := c.Access(0x100, false)
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	r = c.Access(0x100, false)
	if !r.Hit {
		t.Fatal("second access must hit")
	}
	// Same line, different offset must also hit.
	if !c.Access(0x13F, false).Hit {
		t.Fatal("same-line access must hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mk(t, 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0*64, false)
	c.Access(1*64, false)
	c.Access(0*64, false) // touch line 0, making line 1 LRU
	r := c.Access(2*64, false)
	if r.Hit {
		t.Fatal("third distinct line must miss in 2-way set")
	}
	if !c.Probe(0 * 64) {
		t.Fatal("MRU line was evicted instead of LRU")
	}
	if c.Probe(1 * 64) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mk(t, 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0*64, true)    // dirty
	c.Access(1*64, false)
	c.Access(1*64, false)
	r := c.Access(2*64, false) // evicts line 0 (LRU, dirty)
	if !r.WritebackValid {
		t.Fatal("evicting dirty line must produce a write-back")
	}
	if r.Writeback != 0 {
		t.Fatalf("writeback addr = %#x, want 0", r.Writeback)
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	// Clean evictions must not produce write-backs.
	r = c.Access(3*64, false)
	if r.WritebackValid {
		t.Fatal("clean eviction produced a write-back")
	}
}

func TestWritebackAddrRoundTrip(t *testing.T) {
	c := mk(t, 4096, 1, 64)     // direct-mapped, 64 sets
	addr := uint64(64 * 64 * 5) // tag 5, set 0
	c.Access(addr, true)
	// Conflict: same set, different tag.
	r := c.Access(addr+uint64(64*64), false)
	if !r.WritebackValid || r.Writeback != addr {
		t.Fatalf("writeback = %#x (valid=%v), want %#x", r.Writeback, r.WritebackValid, addr)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := mk(t, 2*64, 2, 64)
	c.Access(0*64, false)
	c.Access(1*64, false)
	h, m := c.Hits, c.Misses
	for i := 0; i < 10; i++ {
		c.Probe(0 * 64) // must not refresh LRU or bump counters
	}
	if c.Hits != h || c.Misses != m {
		t.Fatal("Probe changed counters")
	}
	// Line 0 is still LRU despite the probes: it must be the victim.
	c.Access(1*64, false)
	c.Access(2*64, false)
	if c.Probe(0 * 64) {
		t.Fatal("Probe refreshed LRU state")
	}
}

func TestHitRate(t *testing.T) {
	c := mk(t, 1024, 2, 64)
	if c.HitRate() != 0 {
		t.Fatal("untouched cache must report 0 hit rate")
	}
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestSequentialLocality(t *testing.T) {
	// Streaming through 128B lines at 4B stride must hit 31/32 of the time.
	c := mk(t, 48<<10, 6, 128)
	hits, total := 0, 0
	for addr := uint64(0); addr < 16<<10; addr += 4 {
		if c.Access(addr, false).Hit {
			hits++
		}
		total++
	}
	rate := float64(hits) / float64(total)
	if rate < 0.95 {
		t.Fatalf("streaming hit rate = %v, want >= 0.95", rate)
	}
}

// Property: the cache never holds more distinct lines than its capacity, and
// an immediately repeated access always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := MustNew("p", 4096, 4, 64)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Access(uint64(a), false).Hit {
				return false // repeat must hit
			}
		}
		// Count resident lines via Probe over the touched set.
		resident := 0
		seen := map[uint64]bool{}
		for _, a := range addrs {
			la := uint64(a) / 64 * 64
			if !seen[la] {
				seen[la] = true
				if c.Probe(la) {
					resident++
				}
			}
		}
		return resident <= 4096/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals the number of accesses.
func TestCountersProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew("p", 2048, 2, 64)
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		return c.Hits+c.Misses == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
