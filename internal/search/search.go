package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
)

// Progress is a phase-level status snapshot the optimizer publishes as it
// runs; the serving layer copies it into job status so clients can watch
// per-generation progress.
type Progress struct {
	// Phase is "baseline", "search" or "confirm".
	Phase string `json:"phase"`
	// Generation counts completed search batches (rungs for halving,
	// generations for evolution, 1 for random search) out of Generations.
	Generation  int `json:"generation"`
	Generations int `json:"generations"`
	// Evaluated counts twin evaluations issued so far out of Planned.
	Evaluated int `json:"evaluated"`
	Planned   int `json:"planned"`
	// FrontierSize is set once the frontier exists (confirm phase on).
	FrontierSize int `json:"frontier_size,omitempty"`
}

// Options wires an optimizer run into its execution environment.
type Options struct {
	// Executor evaluates candidate cells; required. The in-process
	// LocalExecutor and the distributed dispatcher both work — analytical
	// inner-loop cells short-circuit to the local runner either way, and
	// DES confirmation cells fan out to workers under a dispatcher.
	Executor batch.Executor
	// Progress, when non-nil, observes each evaluated cell (the
	// batch.Executor contract's callback, forwarded verbatim).
	Progress batch.Progress
	// OnPhase, when non-nil, observes phase-level progress snapshots.
	OnPhase func(Progress)
}

// candidate is one explored configuration and its bookkeeping.
type candidate struct {
	id        int
	gen       int
	parent    *int
	genome    []float64
	overrides map[string]interface{}
	fidelity  int // MaxInstructions of the last evaluation; 0 = base
	full      bool
	metrics   map[string]float64
	scores    map[string]float64
	fitness   float64
	feasible  bool
	verdict   string
	reason    string
	dupOf     int // id of the candidate this one's genome repeats; -1 if unique
}

// run is the in-flight state of one optimizer run.
type run struct {
	r    *resolved
	opt  Options
	rng  *rand.Rand
	full int // full-fidelity instruction budget (base config's)

	cands     []*candidate
	byGenome  map[string]int
	baselines map[int]map[string]float64 // fidelity -> baseline metrics
	evaluated int
	planned   int
}

// Run executes the optimizer spec and returns its result. The search
// trajectory is fully determined by (spec, seed): candidates are generated
// sequentially from one seeded RNG before each batch evaluates, and the
// executor returns reports positionally, so worker completion order never
// leaks into the outcome.
func Run(ctx context.Context, spec Spec, opt Options) (*Result, error) {
	if opt.Executor == nil {
		return nil, fmt.Errorf("search: Options.Executor is required")
	}
	res, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	s := &run{
		r:         res,
		opt:       opt,
		rng:       rand.New(rand.NewSource(res.strategy.Seed)),
		full:      res.scenario.Config.MaxInstructions,
		byGenome:  make(map[string]int),
		baselines: make(map[int]map[string]float64),
		planned:   spec.PlannedEvaluations(),
	}

	s.phase(Progress{Phase: "baseline"})
	if err := s.evalBaseline(ctx); err != nil {
		return nil, err
	}

	switch res.strategy.Algorithm {
	case AlgoEvolution:
		err = s.runEvolution(ctx)
	case AlgoHalving:
		err = s.runHalving(ctx)
	default:
		err = s.runRandom(ctx)
	}
	if err != nil {
		return nil, err
	}

	frontier := s.pareto()
	s.phase(Progress{Phase: "confirm", FrontierSize: len(frontier)})
	confirmed, err := s.confirm(ctx, frontier)
	if err != nil {
		return nil, err
	}
	return s.result(frontier, confirmed), nil
}

// phase publishes a phase snapshot with the counters filled in.
func (s *run) phase(p Progress) {
	if s.opt.OnPhase == nil {
		return
	}
	p.Evaluated = s.evaluated
	p.Planned = s.planned
	s.opt.OnPhase(p)
}

// --- genome handling ---

// genomeKey identifies a genome for deduplication.
func genomeKey(g []float64) string {
	var b strings.Builder
	for _, v := range g {
		b.WriteString(strconv.FormatFloat(v, 'g', 17, 64))
		b.WriteByte('|')
	}
	return b.String()
}

// sampleAxis draws one uniform position on an axis.
func (s *run) sampleAxis(d axisDomain) float64 {
	if d.continuous {
		return d.min + s.rng.Float64()*(d.max-d.min)
	}
	return float64(s.rng.Intn(d.n))
}

// mutateAxis perturbs one position: categorical/quantized axes take a
// small (never zero) index step, continuous axes a gaussian nudge of a
// tenth of the range. Results stay in the domain.
func (s *run) mutateAxis(d axisDomain, cur float64) float64 {
	if d.continuous {
		v := cur + s.rng.NormFloat64()*(d.max-d.min)/10
		return math.Min(d.max, math.Max(d.min, v))
	}
	if d.n <= 1 {
		return cur
	}
	step := int(math.Round(s.rng.NormFloat64() * float64(d.n) / 6))
	if step == 0 {
		if s.rng.Intn(2) == 0 {
			step = -1
		} else {
			step = 1
		}
	}
	idx := int(cur) + step
	if idx < 0 {
		idx = 0
	}
	if idx >= d.n {
		idx = d.n - 1
	}
	if idx == int(cur) {
		if idx == 0 {
			idx = 1
		} else {
			idx--
		}
	}
	return float64(idx)
}

// sampleGenome draws a full uniform genome.
func (s *run) sampleGenome() []float64 {
	g := make([]float64, len(s.r.axes))
	for i, d := range s.r.axes {
		g[i] = s.sampleAxis(d)
	}
	return g
}

// mutateGenome copies a parent genome and mutates at least one axis (each
// axis mutates with probability 1/len, and one forced axis always does).
func (s *run) mutateGenome(parent []float64) []float64 {
	g := make([]float64, len(parent))
	copy(g, parent)
	forced := s.rng.Intn(len(g))
	for i, d := range s.r.axes {
		if i == forced || s.rng.Intn(len(g)) == 0 {
			g[i] = s.mutateAxis(d, g[i])
		}
	}
	return g
}

// overridesOf converts a genome into the override patch it encodes.
func (s *run) overridesOf(g []float64) map[string]interface{} {
	ov := make(map[string]interface{}, len(g))
	for i, d := range s.r.axes {
		switch {
		case len(d.values) > 0:
			ov[d.path] = d.values[int(g[i])]
		case d.continuous:
			ov[d.path] = g[i]
		default:
			v := d.min + g[i]*d.step
			if d.typ == "float" {
				ov[d.path] = v
			} else {
				ov[d.path] = int64(math.Round(v))
			}
		}
	}
	return ov
}

// addCandidate registers a genome as a new candidate, resolving
// duplicates against every earlier genome (a duplicate shares the
// original's evaluation and never re-evaluates).
func (s *run) addCandidate(gen int, parent *int, g []float64) *candidate {
	c := &candidate{
		id:        len(s.cands),
		gen:       gen,
		parent:    parent,
		genome:    g,
		overrides: s.overridesOf(g),
		dupOf:     -1,
	}
	key := genomeKey(g)
	if prev, ok := s.byGenome[key]; ok {
		c.dupOf = prev
	} else {
		s.byGenome[key] = c.id
	}
	s.cands = append(s.cands, c)
	return c
}

// freshGenome samples (or mutates toward) a genome not yet seen, giving
// up after a bounded number of retries — a duplicate is then recorded as
// such rather than burning evaluations.
func (s *run) freshGenome(sample func() []float64) []float64 {
	for try := 0; try < 20; try++ {
		g := sample()
		if _, dup := s.byGenome[genomeKey(g)]; !dup {
			return g
		}
	}
	return sample()
}

// --- evaluation ---

// cellFor builds the evaluation cell for an override patch at a fidelity.
func (s *run) cellFor(idx int, ov map[string]interface{}, fidelity int, exec config.ExecMode) (batch.Cell, error) {
	sc := s.r.scenario
	cfg := sc.Config
	if fidelity > 0 {
		cfg.MaxInstructions = fidelity
	}
	if err := cfg.ApplyOverrides(ov); err != nil {
		return batch.Cell{}, err
	}
	if err := cfg.Validate(); err != nil {
		return batch.Cell{}, err
	}
	cell := batch.Cell{
		Index:     idx,
		Exec:      exec,
		Workload:  sc.Workload.Name,
		Config:    cfg,
		Overrides: ov,
	}
	if sc.Custom {
		w := sc.Workload
		cell.WorkloadDef = &w
	}
	return cell, nil
}

// evalBaseline evaluates the unperturbed base scenario as candidate 0.
// The baseline has no genome (its override patch is empty, not a decoded
// zero position), so it never collides with a sampled candidate in the
// duplicate check.
func (s *run) evalBaseline(ctx context.Context) error {
	base, err := s.baselineAt(ctx, s.full)
	if err != nil {
		return err
	}
	c := &candidate{
		id:        0,
		overrides: map[string]interface{}{},
		fidelity:  s.full,
		full:      true,
		metrics:   base,
		scores:    s.scoresOf(base, base),
		feasible:  len(violations(s.r.objs, base)) == 0,
		verdict:   VerdictBaseline,
		reason:    "unperturbed base scenario; scores normalize against it",
		dupOf:     -1,
	}
	c.fitness = fitnessOf(s.r.objs, c.scores)
	s.cands = append(s.cands, c)
	return nil
}

// baselineAt evaluates (and memoizes) the base scenario's metrics at a
// fidelity; halving rungs rank their candidates against the baseline
// measured at the same instruction budget.
func (s *run) baselineAt(ctx context.Context, fidelity int) (map[string]float64, error) {
	if m, ok := s.baselines[fidelity]; ok {
		return m, nil
	}
	cell, err := s.cellFor(0, nil, fidelity, config.ExecAnalytical)
	if err != nil {
		return nil, fmt.Errorf("search: baseline: %w", err)
	}
	reps, err := s.opt.Executor.RunContext(ctx, []batch.Cell{cell}, s.opt.Progress)
	if err != nil {
		return nil, fmt.Errorf("search: baseline evaluation: %w", err)
	}
	s.evaluated++
	m := metricsOf(s.r.objs, reps[0])
	s.baselines[fidelity] = m
	return m, nil
}

// scoresOf computes the per-objective baseline-relative scores.
func (s *run) scoresOf(metrics, base map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(s.r.objs))
	for _, o := range s.r.objs {
		out[o.metric] = o.score(metrics[o.metric], base[o.metric])
	}
	return out
}

// evalBatch evaluates a candidate batch at one fidelity through the
// executor. Invalid configurations are marked and skipped; duplicates
// inherit the original's evaluation.
func (s *run) evalBatch(ctx context.Context, cands []*candidate, fidelity int) error {
	base, err := s.baselineAt(ctx, fidelity)
	if err != nil {
		return err
	}
	var cells []batch.Cell
	var live []*candidate
	for _, c := range cands {
		if c.dupOf >= 0 {
			orig := s.cands[c.dupOf]
			c.fidelity = orig.fidelity
			c.full = orig.full
			c.metrics = orig.metrics
			c.scores = orig.scores
			c.fitness = orig.fitness
			c.feasible = orig.feasible
			c.verdict = VerdictDuplicate
			c.reason = fmt.Sprintf("override set repeats candidate %d; shares its evaluation", c.dupOf)
			continue
		}
		cell, err := s.cellFor(len(cells), c.overrides, fidelity, config.ExecAnalytical)
		if err != nil {
			c.verdict = VerdictInvalid
			c.reason = fmt.Sprintf("sampled configuration rejected: %v", err)
			c.fidelity = fidelity
			continue
		}
		cells = append(cells, cell)
		live = append(live, c)
	}
	if len(cells) == 0 {
		return nil
	}
	reps, err := s.opt.Executor.RunContext(ctx, cells, s.opt.Progress)
	if err != nil {
		return fmt.Errorf("search: candidate evaluation: %w", err)
	}
	s.evaluated += len(cells)
	for i, c := range live {
		s.applyReport(c, reps[i], base, fidelity)
	}
	return nil
}

// applyReport folds one evaluation into a candidate.
func (s *run) applyReport(c *candidate, rep stats.Report, base map[string]float64, fidelity int) {
	c.fidelity = fidelity
	c.full = fidelity >= s.full
	c.metrics = metricsOf(s.r.objs, rep)
	c.scores = s.scoresOf(c.metrics, base)
	c.fitness = fitnessOf(s.r.objs, c.scores)
	c.feasible = len(violations(s.r.objs, c.metrics)) == 0
}

// --- strategies ---

// runRandom evaluates Budget uniform samples in one full-fidelity batch.
func (s *run) runRandom(ctx context.Context) error {
	var gen []*candidate
	for i := 0; i < s.r.strategy.Budget; i++ {
		gen = append(gen, s.addCandidate(0, nil, s.freshGenome(s.sampleGenome)))
	}
	if err := s.evalBatch(ctx, gen, s.full); err != nil {
		return err
	}
	s.phase(Progress{Phase: "search", Generation: 1, Generations: 1})
	return nil
}

// runHalving runs successive halving: an initial pool at a cheap
// instruction budget, the top 1/eta surviving into each richer rung, the
// final rung at full fidelity. Rung ranking compares against the baseline
// evaluated at the same fidelity.
func (s *run) runHalving(ctx context.Context) error {
	st := s.r.strategy
	pool := make([]*candidate, 0, st.Budget)
	for i := 0; i < st.Budget; i++ {
		pool = append(pool, s.addCandidate(0, nil, s.freshGenome(s.sampleGenome)))
	}
	for rung := 0; rung < st.Rungs; rung++ {
		fid := s.rungFidelity(rung)
		for _, c := range pool {
			c.gen = rung
		}
		if err := s.evalBatch(ctx, pool, fid); err != nil {
			return err
		}
		s.phase(Progress{Phase: "search", Generation: rung + 1, Generations: st.Rungs})
		if rung == st.Rungs-1 {
			break
		}
		ranked := rankCandidates(pool)
		keep := (len(ranked) + st.Eta - 1) / st.Eta
		if keep < 1 {
			keep = 1
		}
		for i, c := range ranked {
			if i >= keep {
				c.verdict = VerdictCulled
				c.reason = fmt.Sprintf("rank %d of %d at rung %d (fidelity %d instructions): below the top-%d cut",
					i+1, len(ranked), rung, fid, keep)
			}
		}
		pool = ranked[:keep]
	}
	return nil
}

// rungFidelity is the instruction budget of one halving rung: the full
// budget divided by eta per remaining rung, floored at minFidelity.
func (s *run) rungFidelity(rung int) int {
	st := s.r.strategy
	fid := s.full
	for i := 0; i < st.Rungs-1-rung; i++ {
		fid /= st.Eta
	}
	if fid < minFidelity {
		fid = minFidelity
	}
	if fid > s.full {
		fid = s.full
	}
	return fid
}

// runEvolution runs the (μ+λ) strategy: a uniform first generation, then
// each generation mutates offspring from the μ elite of everything
// evaluated so far and re-selects.
func (s *run) runEvolution(ctx context.Context) error {
	st := s.r.strategy
	var all []*candidate
	for g := 0; g < st.Generations; g++ {
		elite := rankCandidates(all)
		if len(elite) > st.Mu {
			elite = elite[:st.Mu]
		}
		var gen []*candidate
		for i := 0; i < st.Lambda; i++ {
			if len(elite) == 0 {
				gen = append(gen, s.addCandidate(g, nil, s.freshGenome(s.sampleGenome)))
				continue
			}
			parent := elite[s.rng.Intn(len(elite))]
			pid := parent.id
			g2 := s.freshGenome(func() []float64 { return s.mutateGenome(parent.genome) })
			gen = append(gen, s.addCandidate(g, &pid, g2))
		}
		if err := s.evalBatch(ctx, gen, s.full); err != nil {
			return err
		}
		all = append(all, gen...)
		s.phase(Progress{Phase: "search", Generation: g + 1, Generations: st.Generations})
	}
	return nil
}

// rankCandidates orders evaluated candidates for selection: feasible
// first, then fitness descending, candidate id ascending — a total,
// deterministic order. Invalid and duplicate candidates are excluded.
func rankCandidates(cands []*candidate) []*candidate {
	out := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		if c.verdict == VerdictInvalid || c.dupOf >= 0 {
			continue
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.feasible != b.feasible {
			return a.feasible
		}
		if a.fitness != b.fitness {
			return a.fitness > b.fitness
		}
		return a.id < b.id
	})
	return out
}

// --- frontier, confirmation, result ---

// pareto computes the frontier over feasible full-fidelity candidates and
// writes the kept/culled verdicts the searches have not already assigned.
func (s *run) pareto() []*candidate {
	var eligible []*candidate
	for _, c := range s.cands {
		if c.verdict == VerdictInvalid || c.verdict == VerdictDuplicate || c.verdict == VerdictCulled {
			continue
		}
		if !c.feasible {
			c.verdict = VerdictInfeasible
			c.reason = "violates " + strings.Join(violations(s.r.objs, c.metrics), "; ")
			continue
		}
		if !c.full {
			continue
		}
		eligible = append(eligible, c)
	}
	var frontier []*candidate
	for _, c := range eligible {
		dominator := -1
		for _, o := range eligible {
			if o.id != c.id && dominates(s.r.objs, o.metrics, c.metrics) {
				dominator = o.id
				break
			}
		}
		if dominator >= 0 {
			if c.verdict == "" {
				c.verdict = VerdictDominated
				c.reason = fmt.Sprintf("feasible but Pareto-dominated by candidate %d", dominator)
			}
			continue
		}
		if c.verdict == "" || c.verdict == VerdictBaseline {
			if c.verdict == "" {
				c.verdict = VerdictFrontier
			}
			c.reason = fmt.Sprintf("feasible and non-dominated (fitness %.6g vs baseline 1)", c.fitness)
			if c.verdict == VerdictBaseline {
				c.reason = "unperturbed base scenario; scores normalize against it; on the Pareto frontier"
			}
		}
		frontier = append(frontier, c)
	}
	sort.SliceStable(frontier, func(i, j int) bool {
		a, b := frontier[i], frontier[j]
		if a.fitness != b.fitness {
			return a.fitness > b.fitness
		}
		return a.id < b.id
	})
	return frontier
}

// confirm re-evaluates the top frontier points under the discrete-event
// simulator and returns the confirmed metrics by candidate id. The twin
// picked the frontier; the simulator reports how far off its estimates
// were (FrontierPoint.TwinError) — membership is not revised, because the
// two tiers' metrics are not interchangeable within one frontier.
func (s *run) confirm(ctx context.Context, frontier []*candidate) (map[int]map[string]float64, error) {
	n := len(frontier)
	if ct := s.r.strategy.ConfirmTop; ct != nil && *ct < n {
		n = *ct
	}
	if n == 0 {
		return nil, nil
	}
	var cells []batch.Cell
	ids := make([]int, 0, n)
	for _, c := range frontier[:n] {
		cell, err := s.cellFor(len(cells), c.overrides, s.full, config.ExecDES)
		if err != nil {
			return nil, fmt.Errorf("search: confirmation cell: %w", err)
		}
		cells = append(cells, cell)
		ids = append(ids, c.id)
	}
	reps, err := s.opt.Executor.RunContext(ctx, cells, s.opt.Progress)
	if err != nil {
		return nil, fmt.Errorf("search: DES confirmation: %w", err)
	}
	out := make(map[int]map[string]float64, n)
	for i, id := range ids {
		out[id] = metricsOf(s.r.objs, reps[i])
	}
	return out, nil
}

// result assembles the final document.
func (s *run) result(frontier []*candidate, confirmed map[int]map[string]float64) *Result {
	spec := s.r.spec
	spec.Search = s.r.strategy // echo with defaults filled in
	res := &Result{
		Spec:      spec,
		Baseline:  s.baselines[s.full],
		Evaluated: s.evaluated,
		Confirmed: len(confirmed),
	}
	for _, c := range frontier {
		fp := FrontierPoint{
			Candidate: c.id,
			Overrides: c.overrides,
			Fitness:   c.fitness,
			Metrics:   c.metrics,
		}
		if des, ok := confirmed[c.id]; ok {
			fp.Confirmed = des
			fp.TwinError = make(map[string]float64, len(des))
			for _, o := range s.r.objs {
				est, got := c.metrics[o.metric], des[o.metric]
				fp.TwinError[o.metric] = (est - got) / math.Max(math.Abs(got), ratioEps)
			}
		}
		res.Frontier = append(res.Frontier, fp)
	}
	for _, c := range s.cands {
		d := Decision{
			Candidate:  c.id,
			Generation: c.gen,
			Parent:     c.parent,
			Overrides:  c.overrides,
			Metrics:    c.metrics,
			Scores:     c.scores,
			Fitness:    c.fitness,
			Feasible:   c.feasible,
			Verdict:    c.verdict,
			Reason:     c.reason,
		}
		if c.fidelity != s.full {
			d.Fidelity = c.fidelity
		}
		res.Decisions = append(res.Decisions, d)
	}
	return res
}
