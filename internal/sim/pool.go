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

// Engine returns the run's event engine.
func (p *Pools) Engine() *Engine { return &p.eng }

// GapResource returns an empty gap-filling resource, clocked by the pools'
// engine and recycled when possible.
func (p *Pools) GapResource() *GapResource {
	r, recycled := p.gap.Get()
	if recycled {
		r.Reset()
	}
	r.clock = &p.eng
	return r
}

// Resource returns an empty serially-occupied resource, recycled when
// possible.
func (p *Pools) Resource() *Resource {
	r, _ := p.res.Get()
	r.Reset()
	return r
}
