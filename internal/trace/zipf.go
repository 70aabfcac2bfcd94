package trace

import (
	"math"
	"sync"

	"repro/internal/sim"
)

// The page-table cache: a trace's page distribution depends only on the
// workload's hot skew and its page count, so every trace of one (skew,
// pages), whatever its seed, instruction budget or platform, draws from one
// immutable sim.ZipfTable instead of rebuilding the CDF (a math.Pow per
// page) and its guide table per trace. Entries are sync.Once-guarded like
// the trace registry's: concurrent generators of one key wait on one build.

// zipfCachePages bounds the total pages of the cached tables. A table costs
// 12 bytes per page (an 8-byte CDF entry and a 4-byte guide bucket), so the
// cache holds at most ~12 MB, about a hundred Table II distributions at the
// default geometry (3,072–10,240 pages each). A new table that would pass
// the bound empties the cache first: a rebuild costs ~1 ms per 8,192 pages,
// less than generating a default-length trace. A table larger than the
// bound is built for its trace and never cached, so a long-lived process
// does not keep a MaxTracePages-sized table alive.
const zipfCachePages = 1 << 20

type zipfKey struct {
	skew  uint64 // math.Float64bits of the skew, so that every skew is a key
	pages int
}

type zipfEntry struct {
	once sync.Once
	t    *sim.ZipfTable
}

var (
	zipfMu     sync.Mutex
	zipfTables = make(map[zipfKey]*zipfEntry)
	zipfPages  int // total pages of the tables in zipfTables

	// newZipfTable builds a table on a miss; tests count builds through it.
	newZipfTable = sim.NewZipfTable
)

// zipfTable returns the shared table for (skew, pages), building it on
// first use.
func zipfTable(skew float64, pages int) *sim.ZipfTable {
	if pages > zipfCachePages {
		return newZipfTable(skew, pages)
	}
	k := zipfKey{math.Float64bits(skew), pages}
	zipfMu.Lock()
	e := zipfTables[k]
	if e == nil {
		if zipfPages+pages > zipfCachePages {
			zipfTables = make(map[zipfKey]*zipfEntry)
			zipfPages = 0
		}
		e = &zipfEntry{}
		zipfTables[k] = e
		zipfPages += pages
	}
	zipfMu.Unlock()
	e.once.Do(func() { e.t = newZipfTable(skew, pages) })
	return e.t
}
