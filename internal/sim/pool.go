package sim

import "repro/internal/slab"

// Pools recycles the kernel's per-run state across simulation runs: the
// event engine and the occupancy trackers. Components that model channels,
// banks, and buses allocate dozens of GapResources and Resources per
// platform build; routing those through a Pools instance lets a pooled run
// state hand each component its previous incarnation — gap tables and all —
// reset to empty.
//
// The pools own the run's Engine, and every GapResource they hand out reads
// its clock, so gap tables retire windows the run has moved past. Every
// construction goes through a Pools: a fresh build passes a new one, a
// pooled rebuild its recycled one. The zero value is ready to use.
type Pools struct {
	eng Engine
	gap slab.Pool[GapResource]
	res slab.Pool[Resource]

	// names caches formatted per-index diagnostic names ("bank3",
	// "vc0-data1") per kind, so warm rebuilds reuse the interned string
	// instead of re-formatting. Name tables are append-only and survive
	// Reset: the strings are immutable and identical across runs.
	names map[string][]string
}

// Reset rewinds the pools for the next run. Objects handed out since the
// previous Reset become reusable, and the engine returns to time zero; the
// caller must no longer touch them through old references once a new run
// starts (the core.RunState ownership discipline guarantees this).
func (p *Pools) Reset() {
	p.eng.Start(0)
	p.gap.Reset()
	p.res.Reset()
}

// Name returns the diagnostic name for index i of a kind, formatting with
// f on first use and serving the cached string afterwards. f must be a
// pure function of i — the cache assumes kind+index fully determines the
// name.
func (p *Pools) Name(kind string, i int, f func(kind string, i int) string) string {
	tab := p.names[kind]
	for len(tab) <= i {
		tab = append(tab, f(kind, len(tab)))
	}
	if p.names == nil {
		p.names = make(map[string][]string, 8)
	}
	p.names[kind] = tab
	return tab[i]
}

// Engine returns the run's event engine.
func (p *Pools) Engine() *Engine { return &p.eng }

// GapResource returns an empty gap-filling resource with the given
// diagnostic name, clocked by the pools' engine and recycled when possible.
func (p *Pools) GapResource(name string) *GapResource {
	r, recycled := p.gap.Get()
	if recycled {
		r.Reset()
	}
	r.name = name
	r.clock = &p.eng
	return r
}

// Resource returns an empty serially-occupied resource with the given
// diagnostic name, recycled when possible.
func (p *Pools) Resource(name string) *Resource {
	r, _ := p.res.Get()
	r.Reset()
	r.name = name
	return r
}
