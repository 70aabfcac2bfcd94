package trace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/config"
)

// The in-process trace registry: generated traces are deterministic pure
// functions of the workload and the handful of config fields Generate reads,
// so multi-cell sweeps that visit the same workload at the same trace
// geometry can share one immutable *Trace instead of regenerating it per
// cell. Trace generation used to dominate cold-cell profiles (the Zipf CDF
// and per-warp streams), so a 140-cell grid paid it up to 140 times.
//
// Entries are sync.Once-guarded: concurrent sweep workers asking for the
// same key block on one generation instead of racing duplicates. Traces
// returned by Cached are shared and MUST be treated as read-only — callers
// that mutate instruction streams (GeneratePhased's hot-set rotation) keep
// calling Generate for a private copy.

// traceKey captures every input Generate reads. Two configs with equal keys
// produce bit-identical traces.
type traceKey struct {
	wl        config.Workload
	seed      uint64
	maxInstr  int
	sms       int
	warpsPer  int
	lineBytes int
	pageBytes int
}

type traceEntry struct {
	once sync.Once
	tr   *Trace
	// claimed is set, under regMu, by the first Cached call: from then on
	// the trace is resident or being generated.
	claimed bool

	// pins counts live sweep-level holds (see Pins); a pinned entry is
	// never evicted. lastUse is the registry's logical clock at the last
	// lookup, driving LRU eviction of unpinned entries.
	pins    int
	lastUse uint64
}

// regCap bounds how many unpinned traces stay resident. Traces are the
// largest single allocation a sweep makes (16 bytes per memory
// instruction: 0.8-25 MB for a default-length Table II trace), so an
// unbounded registry would grow with every distinct geometry the process
// ever saw; 64 comfortably covers the paper's largest grid while keeping a
// long-lived daemon's footprint flat.
const regCap = 64

var (
	regMu    sync.Mutex
	registry = make(map[traceKey]*traceEntry)
	regTick  uint64

	// generations counts the traces the registry has generated.
	generations atomic.Uint64
)

// entryLocked returns the (possibly new) entry for k, stamping its use
// time and evicting LRU unpinned entries to stay within regCap. Caller
// holds regMu.
func entryLocked(k traceKey) *traceEntry {
	regTick++
	e := registry[k]
	if e == nil {
		if len(registry) >= regCap {
			evictLocked()
		}
		e = &traceEntry{}
		registry[k] = e
	}
	e.lastUse = regTick
	return e
}

// evictLocked drops least-recently-used unpinned entries until the
// registry is below capacity. Pinned entries are exempt: a sweep over
// more than regCap distinct traces keeps them all resident for its
// duration (the registry grows past cap rather than thrash mid-sweep).
func evictLocked() {
	for len(registry) >= regCap {
		var victimKey traceKey
		var victim *traceEntry
		for k, e := range registry {
			if e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(registry, victimKey)
	}
}

func keyFor(w config.Workload, c *config.Config) traceKey {
	return traceKey{
		wl:        w,
		seed:      c.Seed,
		maxInstr:  c.MaxInstructions,
		sms:       c.GPU.SMs,
		warpsPer:  c.GPU.WarpsPerSM,
		lineBytes: c.GPU.LineBytes,
		pageBytes: c.Memory.PageBytes,
	}
}

// Cached returns the shared immutable trace for (w, c), generating it on
// first use. Safe for concurrent use; see the package comment on mutation.
func Cached(w config.Workload, c *config.Config) *Trace {
	regMu.Lock()
	e := entryLocked(keyFor(w, c))
	e.claimed = true
	regMu.Unlock()
	e.once.Do(func() {
		e.tr = Generate(w, c)
		generations.Add(1)
	})
	return e.tr
}

// Resident reports whether the registry holds the trace for (w, c) or a
// Cached call is generating it; a pinned key no one has read yet is not
// resident. It neither creates an entry nor counts as a use.
func Resident(w config.Workload, c *config.Config) bool {
	regMu.Lock()
	defer regMu.Unlock()
	e := registry[keyFor(w, c)]
	return e != nil && e.claimed
}

// Pins keeps a set of trace keys resident across a sweep: the batch
// runner pins every distinct key its cells will read before any cell
// runs, so the registry's LRU bound cannot evict a trace mid-sweep and
// force a second generation. Pinning does not generate; the first Cached
// call for a key does.
//
// The zero value is ready to use. Safe for concurrent use.
type Pins struct {
	mu      sync.Mutex
	entries map[*traceEntry]struct{}
}

// Add pins the trace key for (w, c) and reports whether the key is new to
// p. Duplicate adds of one key are deduplicated, so callers can feed every
// cell of a sweep through Add.
func (p *Pins) Add(w config.Workload, c *config.Config) bool {
	// Pin under the registry lock so no eviction can slip between the
	// lookup and the increment.
	regMu.Lock()
	e := entryLocked(keyFor(w, c))
	e.pins++
	regMu.Unlock()

	p.mu.Lock()
	if p.entries == nil {
		p.entries = make(map[*traceEntry]struct{})
	}
	_, dup := p.entries[e]
	if !dup {
		p.entries[e] = struct{}{}
	}
	p.mu.Unlock()

	if dup {
		regMu.Lock()
		e.pins--
		regMu.Unlock()
	}
	return !dup
}

// Release unpins everything added so far. Idempotent; the pinned entries
// become ordinary LRU candidates again.
func (p *Pins) Release() {
	p.mu.Lock()
	entries := p.entries
	p.entries = nil
	p.mu.Unlock()

	regMu.Lock()
	for e := range entries {
		e.pins--
	}
	regMu.Unlock()
}

// CachedByName resolves a Table II workload name and returns its shared
// trace.
func CachedByName(name string, c *config.Config) (*Trace, error) {
	w, ok := config.WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("trace: unknown workload %q (Table II names: %v)",
			name, config.WorkloadNames())
	}
	return Cached(w, c), nil
}

// ResetCache drops all cached traces and page tables (tests, or reclaiming
// memory between sweeps over disjoint geometries).
func ResetCache() {
	regMu.Lock()
	registry = make(map[traceKey]*traceEntry)
	regMu.Unlock()
	zipfMu.Lock()
	zipfTables = make(map[zipfKey]*zipfEntry)
	zipfPages = 0
	zipfMu.Unlock()
}

// CacheLen reports how many trace keys the registry holds, generated or
// only pinned (diagnostics).
func CacheLen() int {
	regMu.Lock()
	defer regMu.Unlock()
	return len(registry)
}

// Generations counts the traces the registry has generated since the
// process started (diagnostics; ResetCache does not zero it).
func Generations() uint64 { return generations.Load() }
