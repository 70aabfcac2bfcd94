package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// zipfCacheState returns the cache's entry count and checks that its page
// total matches its entries and stays within the bound.
func zipfCacheState(t *testing.T) int {
	t.Helper()
	zipfMu.Lock()
	defer zipfMu.Unlock()
	sum := 0
	for k := range zipfTables {
		sum += k.pages
	}
	if sum != zipfPages || zipfPages > zipfCachePages {
		t.Fatalf("cache holds %d pages, counts %d, bound %d", sum, zipfPages, zipfCachePages)
	}
	return len(zipfTables)
}

// TestZipfCacheBounded: more distinct (skew, pages) than fit stay within
// zipfCachePages, a cached key returns its table until the cache empties,
// and a table larger than the bound is built but never cached.
func TestZipfCacheBounded(t *testing.T) {
	ResetCache()
	defer ResetCache()
	pages := zipfCachePages/3 + 1 // two fit, three do not
	a := zipfTable(0.5, pages)
	zipfTable(1.0, pages)
	if zipfTable(0.5, pages) != a || zipfCacheState(t) != 2 {
		t.Fatal("a cached key must return its table")
	}
	zipfTable(1.5, pages) // does not fit: the cache empties first
	if n := zipfCacheState(t); n != 1 {
		t.Fatalf("cache holds %d tables, want 1", n)
	}
	if zipfTable(0.5, pages) == a {
		t.Fatal("an emptied cache returned a dropped table")
	}
	for i := 0; i < 9; i++ {
		zipfTable(2+float64(i), pages/2)
		zipfCacheState(t)
	}
	if zipfTable(1.0, zipfCachePages+1) == nil {
		t.Fatal("no table for a key larger than the bound")
	}
	zipfMu.Lock()
	_, cached := zipfTables[zipfKey{math.Float64bits(1.0), zipfCachePages + 1}]
	zipfMu.Unlock()
	if cached {
		t.Fatal("a table larger than the bound was cached")
	}
	zipfCacheState(t)
}

// TestZipfCacheBuildsOnce: concurrent generators of traces that share a
// (skew, pages), across seeds, build its table once and share it.
func TestZipfCacheBuildsOnce(t *testing.T) {
	ResetCache()
	defer ResetCache()
	var builds atomic.Int64
	defer func(f func(float64, int) *sim.ZipfTable) { newZipfTable = f }(newZipfTable)
	newZipfTable = func(s float64, n int) *sim.ZipfTable {
		builds.Add(1)
		return sim.NewZipfTable(s, n)
	}
	w, _ := config.WorkloadByName("bfsdata")
	const gor = 16
	tables := make([]*sim.ZipfTable, gor)
	var wg sync.WaitGroup
	for i := 0; i < gor; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := config.Default(config.Oracle, config.Planar)
			c.Seed = uint64(i)
			c.MaxInstructions = 50
			Generate(w, &c)
			tables[i] = zipfTable(w.HotSkew, 8192)
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds of one (skew, pages), want 1", b)
	}
	for i := range tables {
		if tables[i] != tables[0] {
			t.Fatal("generators of one (skew, pages) must share its table")
		}
	}
	if n := zipfCacheState(t); n != 1 {
		t.Fatalf("cache holds %d tables, want 1", n)
	}
}

// TestResetCacheEmptiesZipfTables: ResetCache drops the page tables with
// the traces.
func TestResetCacheEmptiesZipfTables(t *testing.T) {
	ResetCache()
	defer ResetCache()
	c := config.Default(config.OhmBW, config.Planar)
	c.MaxInstructions = 50
	w, _ := config.WorkloadByName("lud")
	Cached(w, &c)
	if zipfCacheState(t) != 1 {
		t.Fatal("generation must cache its page table")
	}
	ResetCache()
	if n := zipfCacheState(t); n != 0 || CacheLen() != 0 {
		t.Fatalf("after ResetCache: %d tables, %d traces", n, CacheLen())
	}
}
