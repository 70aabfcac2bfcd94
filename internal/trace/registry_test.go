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
