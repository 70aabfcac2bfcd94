package sim

// Pools is the kernel state every component of one build shares: the
// run's event engine, which is also the clock of its gap tables. Each
// component keeps its GapResources and Resources by value in its own slots
// and rebuilds them in place, the gap tables through Table and Tables.
// The type keeps its name and its Reset and Engine methods because every
// NewIn(re, pools, ...) constructor takes one, and callers outside this
// module build one too (perfbench's harness passes one to hmem.NewIn and
// gpu.NewIn). Every construction goes through a Pools: a fresh build
// passes a new one, a pooled rebuild its recycled one. The zero value is
// ready to use.
type Pools struct {
	eng Engine
}

// Reset returns the engine to time zero for the next run.
func (p *Pools) Reset() { p.eng.Start(0) }

// Engine returns the run's event engine.
func (p *Pools) Engine() *Engine { return &p.eng }

// Table empties t, keeping its grown window array, and clocks it by the
// run's engine.
func (p *Pools) Table(t *GapResource) {
	t.Reset()
	t.clock = &p.eng
}

// Tables returns s resized to n (as Slots does), every table emptied and
// clocked by the run's engine.
func (p *Pools) Tables(s []GapResource, n int) []GapResource {
	s = Slots(s, n)
	for i := range s {
		p.Table(&s[i])
	}
	return s
}

// Slots returns s resliced to n elements. An element past len(s) but
// within its capacity keeps what an earlier build left in it, so a
// component keeps its grown parts while its count shrinks and grows back;
// the caller reinitializes every element it uses.
func Slots[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}
