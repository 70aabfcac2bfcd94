package trace

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
)

func TestCachedReturnsSharedIdenticalTrace(t *testing.T) {
	ResetCache()
	defer ResetCache()
	c := config.Default(config.OhmBW, config.Planar)
	c.MaxInstructions = 300
	w, _ := config.WorkloadByName("bfsdata")

	a := Cached(w, &c)
	b := Cached(w, &c)
	if a != b {
		t.Fatal("same key must return the same shared *Trace")
	}
	fresh := Generate(w, &c)
	if !reflect.DeepEqual(a.Warps, fresh.Warps) {
		t.Fatal("cached trace differs from a fresh generation")
	}
	if CacheLen() != 1 {
		t.Fatalf("cache holds %d traces, want 1", CacheLen())
	}
}

func TestCachedKeySeparatesGeometry(t *testing.T) {
	ResetCache()
	defer ResetCache()
	c1 := config.Default(config.OhmBW, config.Planar)
	c1.MaxInstructions = 200
	c2 := c1
	c2.MaxInstructions = 400
	w, _ := config.WorkloadByName("lud")

	a := Cached(w, &c1)
	b := Cached(w, &c2)
	if a == b {
		t.Fatal("different MaxInstructions must not share a trace")
	}
	if len(expand(a.Warps[0])) == len(expand(b.Warps[0])) {
		t.Fatal("trace lengths should differ across MaxInstructions")
	}
}

func TestCachedConcurrentSingleGeneration(t *testing.T) {
	ResetCache()
	defer ResetCache()
	c := config.Default(config.Oracle, config.Planar)
	c.MaxInstructions = 200
	w, _ := config.WorkloadByName("sssp")

	const gor = 16
	out := make([]*Trace, gor)
	var wg sync.WaitGroup
	for i := 0; i < gor; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = Cached(w, &c)
		}()
	}
	wg.Wait()
	for i := 1; i < gor; i++ {
		if out[i] != out[0] {
			t.Fatal("concurrent callers must share one generated trace")
		}
	}
	if CacheLen() != 1 {
		t.Fatalf("cache holds %d traces, want 1", CacheLen())
	}
}

func TestCachedByNameUnknown(t *testing.T) {
	c := config.Default(config.Oracle, config.Planar)
	if _, err := CachedByName("nope", &c); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestResidentAndGenerations: a pinned key is not resident until a Cached
// call claims it; Generations counts one generation per key, however many
// calls read it; Pins.Add reports which keys are new to the set.
func TestResidentAndGenerations(t *testing.T) {
	ResetCache()
	defer ResetCache()
	c := config.Default(config.Oracle, config.Planar)
	c.MaxInstructions = 200
	w, _ := config.WorkloadByName("lud")
	other := c
	other.Seed++

	var p Pins
	defer p.Release()
	if !p.Add(w, &c) || p.Add(w, &c) || !p.Add(w, &other) {
		t.Fatal("Add must report a key new to the set once, and only once")
	}
	if Resident(w, &c) || Resident(w, &other) {
		t.Fatal("a pinned key no Cached call has read is resident")
	}
	before := Generations()
	Cached(w, &c)
	Cached(w, &c)
	if !Resident(w, &c) || Resident(w, &other) {
		t.Fatal("Resident must follow Cached, key by key")
	}
	if got := Generations() - before; got != 1 {
		t.Fatalf("%d generations for one key read twice, want 1", got)
	}
	if n := CacheLen(); n != 2 {
		t.Fatalf("registry holds %d keys, want the 2 pinned", n)
	}
}
