package batch

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/twin"
)

// keyVersion invalidates every cached result when the simulator's
// observable behaviour changes; bump it alongside model changes that alter
// reports without altering config.Config.
const keyVersion = "ohm-batch-v1"

// Key returns the cell's content address: a hash of the fully-resolved
// configuration, the workload name and the run variant — plus, for inline
// custom workloads, the full workload definition, so two custom workloads
// sharing a name never collide. Two cells with equal keys produce
// byte-identical reports (the simulator is deterministic and seeded from
// the config), which is what makes the cache safe. The configuration
// hashes as its JSON form, so adding or removing a Config field changes
// every key once without a keyVersion bump: removing the six knobs no
// model read (memory.hot_epoch_ns among them) did, and entries cached
// before it are misses.
func (c Cell) Key() (string, error) {
	cfg, err := json.Marshal(c.Config)
	if err != nil {
		return "", fmt.Errorf("batch: hash config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte{0})
	h.Write(cfg)
	h.Write([]byte{0})
	h.Write([]byte(c.Workload))
	h.Write([]byte{0})
	h.Write([]byte(c.Variant))
	if c.Exec == config.ExecAnalytical {
		// Salt analytical keys with the execution mode AND the twin's model
		// version: estimates must never answer for simulations (or vice
		// versa), and retuning the twin must invalidate stale estimates
		// without touching any DES entry. DES cells write nothing here.
		h.Write([]byte{0})
		h.Write([]byte("exec=analytical/" + twin.ModelVersion))
	}
	if c.WorkloadDef != nil {
		def, err := json.Marshal(c.WorkloadDef)
		if err != nil {
			return "", fmt.Errorf("batch: hash workload def: %w", err)
		}
		h.Write([]byte{0})
		h.Write(def)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache stores marshaled stats.Report values under content-address keys.
// Both implementations store the serialized form so cached and fresh
// results are interchangeable (no shared map aliasing between callers).
type Cache interface {
	Get(key string) (stats.Report, bool)
	Put(key string, rep stats.Report) error
}

// StoredForm returns rep as the result cache hands it back, after the
// JSON round trip both caches apply. It is also a deep copy, so callers
// given stored forms never alias one report's maps. A report that does not
// marshal is returned as is; no cache can store it.
func StoredForm(rep stats.Report) stats.Report {
	data, err := json.Marshal(rep)
	if err != nil {
		return rep
	}
	var out stats.Report
	if err := json.Unmarshal(data, &out); err != nil {
		return rep
	}
	return out
}

// MemCache is a process-wide in-memory cache; experiments share one so
// overlapping figures (16-19 visit many of the same cells) run each cell
// once per process.
type MemCache struct {
	mu    sync.RWMutex
	m     map[string][]byte
	bytes int64
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[string][]byte)}
}

// Get decodes the stored report, if any.
func (c *MemCache) Get(key string) (stats.Report, bool) {
	c.mu.RLock()
	data, ok := c.m[key]
	c.mu.RUnlock()
	if !ok {
		return stats.Report{}, false
	}
	var rep stats.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		mCacheCorrupt.Inc()
		return stats.Report{}, false
	}
	return rep, true
}

// has reports whether the cache holds key, without decoding the entry.
func (c *MemCache) has(key string) bool {
	c.mu.RLock()
	_, ok := c.m[key]
	c.mu.RUnlock()
	return ok
}

// Put stores the report's serialized form.
func (c *MemCache) Put(key string, rep stats.Report) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	c.mu.Lock()
	old, existed := c.m[key]
	c.m[key] = data
	c.bytes += int64(len(data) - len(old))
	c.mu.Unlock()
	if !existed {
		mCacheEntries.Inc()
	}
	mCacheBytes.Add(int64(len(data) - len(old)))
	return nil
}

// CacheStats reports the cache's entry count and stored bytes.
func (c *MemCache) CacheStats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{Entries: int64(len(c.m)), Bytes: c.bytes}
}

// DiskCache is the on-disk result cache: one JSON file per cell, named by
// its content address, sharded by the key's first byte to keep directories
// small. Writes go through a temp file + rename so a crashed run never
// leaves a torn entry.
//
// With a byte budget (NewBoundedDiskCache) the cache also runs LRU GC: an
// in-memory recency index is seeded from file mtimes during the startup
// scan, Get refreshes recency (bumping the file's mtime so the order
// survives restarts), and an incremental sweep after each Put evicts the
// coldest entries until the cache is back under budget. Entries that
// exist but fail to decode are moved aside into quarantineDir for
// inspection instead of silently missing forever.
type DiskCache struct {
	Dir string

	entries atomic.Int64
	bytes   atomic.Int64

	// LRU state, present only when maxBytes > 0 so the unbounded cache
	// keeps its zero-memory-overhead, atomics-only behaviour.
	maxBytes int64
	mu       sync.Mutex
	lru      *list.List // front = hottest; values are *lruEntry
	index    map[string]*list.Element
}

// lruEntry is one key's node in the recency list.
type lruEntry struct {
	key  string
	size int64
}

// quarantineDir is the subdirectory (under Dir) corrupt entries are moved
// into; the startup scan skips it.
const quarantineDir = "quarantine"

// NewDiskCache opens (creating if needed) an unbounded cache rooted at
// dir; see NewBoundedDiskCache for the byte-budgeted form.
func NewDiskCache(dir string) (*DiskCache, error) {
	return NewBoundedDiskCache(dir, 0)
}

// NewBoundedDiskCache opens (creating if needed) a cache rooted at dir
// holding at most maxBytes of entries (0 means unbounded). Opening scans
// the directory once so entry and byte counts reflect results kept warm
// from earlier runs; with a budget the same scan seeds the LRU order
// from file mtimes and immediately evicts past-budget cold entries.
func NewBoundedDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("batch: cache dir: %w", err)
	}
	c := &DiskCache{Dir: dir, maxBytes: maxBytes}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == quarantineDir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			c.entries.Add(1)
			c.bytes.Add(info.Size())
			if maxBytes > 0 {
				found = append(found, scanned{
					key:   strings.TrimSuffix(d.Name(), ".json"),
					size:  info.Size(),
					mtime: info.ModTime(),
				})
			}
		}
		return nil
	})
	mCacheEntries.Add(c.entries.Load())
	mCacheBytes.Add(c.bytes.Load())
	if maxBytes > 0 {
		// Oldest-first insertion at the front leaves the most recently
		// touched entry hottest.
		sort.Slice(found, func(a, b int) bool { return found[a].mtime.Before(found[b].mtime) })
		c.lru = list.New()
		c.index = make(map[string]*list.Element, len(found))
		for _, s := range found {
			c.index[s.key] = c.lru.PushFront(&lruEntry{key: s.key, size: s.size})
		}
		c.mu.Lock()
		c.gcLocked("")
		c.mu.Unlock()
	}
	return c, nil
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.Dir, key[:2], key+".json")
}

// has reports whether key's entry file exists, without reading it or
// refreshing its recency.
func (c *DiskCache) has(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Get loads a cached report; a missing or unreadable entry is a miss, a
// present-but-corrupt entry is quarantined and then a miss.
func (c *DiskCache) Get(key string) (stats.Report, bool) {
	start := time.Now()
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return stats.Report{}, false
	}
	mCacheReadSeconds.ObserveDuration(time.Since(start))
	var rep stats.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		mCacheCorrupt.Inc()
		c.quarantine(key, int64(len(data)))
		return stats.Report{}, false
	}
	c.touch(key, int64(len(data)))
	return rep, true
}

// touch refreshes the key's recency: front of the LRU list plus an mtime
// bump on disk, so the LRU order a future process reconstructs from the
// startup scan reflects reads, not just writes. Bounded caches only — the
// unbounded cache stays syscall-for-syscall identical to its old self.
func (c *DiskCache) touch(key string, size int64) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
	} else {
		// Written by another process sharing the directory, or raced with
		// eviction; adopt it.
		c.index[key] = c.lru.PushFront(&lruEntry{key: key, size: size})
	}
	c.mu.Unlock()
	now := time.Now()
	_ = os.Chtimes(c.path(key), now, now)
}

// quarantine moves a corrupt entry into quarantineDir (flat, keyed file
// name) so it can be inspected and the slot serves a fresh result next
// time, instead of decoding to garbage forever.
func (c *DiskCache) quarantine(key string, size int64) {
	dst := filepath.Join(c.Dir, quarantineDir, key+".json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return
	}
	if err := os.Rename(c.path(key), dst); err != nil {
		return
	}
	mCacheQuarantined.Inc()
	c.entries.Add(-1)
	c.bytes.Add(-size)
	mCacheEntries.Dec()
	mCacheBytes.Add(-size)
	if c.maxBytes > 0 {
		c.mu.Lock()
		if el, ok := c.index[key]; ok {
			c.lru.Remove(el)
			delete(c.index, key)
		}
		c.mu.Unlock()
	}
}

// Put writes the report atomically under its key, then (bounded caches)
// sweeps the coldest entries until the cache is back under budget.
func (c *DiskCache) Put(key string, rep stats.Report) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	start := time.Now()
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Replacing an entry swaps bytes; a fresh key adds an entry. Sized
	// before the rename so the delta is exact even under concurrent Puts
	// of distinct keys (same-key concurrent Puts write identical bytes —
	// results are content-addressed — so any interleaving still balances).
	var oldSize, delta int64
	fresh := true
	if info, err := os.Stat(p); err == nil {
		oldSize, fresh = info.Size(), false
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	delta = int64(len(data)) - oldSize
	c.bytes.Add(delta)
	mCacheBytes.Add(delta)
	if fresh {
		c.entries.Add(1)
		mCacheEntries.Inc()
	}
	mCacheWriteSeconds.ObserveDuration(time.Since(start))
	if c.maxBytes > 0 {
		c.mu.Lock()
		if el, ok := c.index[key]; ok {
			c.lru.MoveToFront(el)
			el.Value.(*lruEntry).size = int64(len(data))
		} else {
			c.index[key] = c.lru.PushFront(&lruEntry{key: key, size: int64(len(data))})
		}
		c.gcLocked(key)
		c.mu.Unlock()
	}
	return nil
}

// gcLocked evicts from the cold end of the LRU list until the cache fits
// its budget. The entry named keep (the just-written key) and the final
// remaining entry are never evicted: a budget smaller than one result
// must not make the cache thrash every Put it just did. Caller holds c.mu.
func (c *DiskCache) gcLocked(keep string) {
	for c.bytes.Load() > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*lruEntry)
		if e.key == keep {
			// The protected key is coldest only when it is effectively
			// the last real entry; stop rather than rotate forever.
			break
		}
		c.lru.Remove(el)
		delete(c.index, e.key)
		if err := os.Remove(c.path(e.key)); err != nil && !os.IsNotExist(err) {
			continue // couldn't delete; counters stay honest, retry next GC
		}
		c.entries.Add(-1)
		c.bytes.Add(-e.size)
		mCacheEntries.Dec()
		mCacheBytes.Add(-e.size)
		mCacheEvictions.Inc()
		mCacheReclaimed.Add(uint64(e.size))
	}
}

// CacheStats reports the cache's entry count and file bytes on disk.
func (c *DiskCache) CacheStats() CacheStats {
	return CacheStats{Entries: c.entries.Load(), Bytes: c.bytes.Load()}
}
