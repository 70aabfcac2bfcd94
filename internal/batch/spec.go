// Package batch is the parallel sweep engine behind every evaluation grid:
// a declarative SweepSpec expands to a deterministic list of simulation
// cells, a worker-pool Runner executes the cells concurrently across
// GOMAXPROCS goroutines (each cell is an independent single-threaded
// discrete-event run), and a content-addressed result cache keyed by the
// fully-resolved configuration makes repeated sweeps and overlapping
// figures near-free. cmd/ohmbatch drives it from the command line;
// internal/experiments builds all figure grids on top of it.
package batch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
)

// Cell is one fully-resolved simulation to run: a complete config plus a
// workload, run by core.Run on the Table II workload the name selects (or,
// when WorkloadDef is set, on that inline workload definition) as the
// cell's Variant.
type Cell struct {
	Index int `json:"index"`
	// Exec selects the evaluation engine: the discrete-event simulator
	// (zero value) or the closed-form analytical twin. Analytical cells
	// estimate instead of simulating; their cache keys are salted with the
	// twin's model version so the two result families never collide.
	Exec     config.ExecMode `json:"-"`
	Workload string          `json:"workload"`
	// WorkloadDef, when non-nil, is an inline custom workload (not a Table
	// II entry): the simulation generates its trace from this struct and
	// the cache key covers the full definition, not just the name.
	WorkloadDef *config.Workload `json:"workload_def,omitempty"`
	Config      config.Config    `json:"-"`
	// Overrides records the dotted-path settings this cell's expansion
	// applied (the Config already reflects them); it labels result rows and
	// never contributes to the cache key.
	Overrides map[string]interface{} `json:"overrides,omitempty"`
	// Variant selects a figure or ablation run (another host link, a
	// phased trace, a probe counter); the zero value is the default run.
	// The cache key covers it. Its JSON name is "salt", the name the dist
	// wire has always used for it.
	Variant core.Variant `json:"salt,omitempty"`
}

// RunFunc executes one cell and returns its report (see Runner.RunFn).
type RunFunc func(cfg config.Config, workload string) (stats.Report, error)

// definition returns the workload the cell runs: its inline definition,
// else the Table II entry its name selects (ok is false for an unknown
// name).
func (c *Cell) definition() (w config.Workload, ok bool) {
	if c.WorkloadDef != nil {
		return *c.WorkloadDef, true
	}
	return config.WorkloadByName(c.Workload)
}

// String identifies the cell in errors and logs, including any override
// patch so two cells of one sweep axis stay distinguishable.
func (c Cell) String() string {
	s := fmt.Sprintf("%s/%s/%s", c.Config.Platform, config.ModeString(c.Config.Mode, c.Exec), c.Workload)
	if len(c.Overrides) > 0 {
		s += "@" + overridesLabel(c.Overrides)
	}
	if c.Variant != core.DefaultRun {
		s += "#" + string(c.Variant)
	}
	return s
}

// Axis is one override axis: the list of values a dotted config path
// sweeps through. On the wire a single-valued axis is a bare scalar, a
// multi-valued one a JSON array.
type Axis []interface{}

// MarshalJSON writes single-valued axes as their scalar.
func (a Axis) MarshalJSON() ([]byte, error) {
	if len(a) == 1 {
		return json.Marshal(a[0])
	}
	return json.Marshal([]interface{}(a))
}

// UnmarshalJSON accepts a scalar or an array of scalars.
func (a *Axis) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var vals []interface{}
		if err := json.Unmarshal(data, &vals); err != nil {
			return err
		}
		*a = vals
		return nil
	}
	var v interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*a = Axis{v}
	return nil
}

// Overrides maps dotted config paths (config.OverridePaths) to the value
// axis each path sweeps; the expansion takes the cross product of every
// axis in sorted path order. A single-valued axis is a fixed override on
// every cell.
type Overrides map[string]Axis

// SweepSpec declares an evaluation grid: the cross product of platforms,
// memory modes, workloads and override axes. Specs are JSON-serializable
// (platforms and modes by their paper names) so sweeps can be checked into
// files and replayed by cmd/ohmbatch or POSTed to the ohmserve daemon.
type SweepSpec struct {
	Platforms []config.Platform `json:"-"`
	Modes     []config.MemMode  `json:"-"`
	// Execs pairs with Modes positionally: the wire "modes" entry
	// "two-level+analytical" parses to Modes[i]=TwoLevel,
	// Execs[i]=ExecAnalytical. Shorter than Modes means the remaining
	// entries are DES (the zero value), so specs predating execution modes
	// behave exactly as before.
	Execs []config.ExecMode `json:"-"`
	// Workloads lists workload names: Table II entries, or names defined in
	// CustomWorkloads (spec-local definitions shadow Table II).
	Workloads []string `json:"workloads,omitempty"`
	// CustomWorkloads defines inline workloads the spec can reference by
	// name; if Workloads is empty, the custom names become the workload
	// axis.
	CustomWorkloads []config.Workload `json:"custom_workloads,omitempty"`

	// Overrides sweeps config fields by dotted path; the cell list is the
	// cross product of all value lists (sorted by path), e.g.
	// {"optical.waveguides": [1,2,4], "xpoint.write_latency_ns": 900}.
	Overrides Overrides `json:"overrides,omitempty"`

	// MaxInstructions overrides the per-warp instruction budget on every
	// cell; 0 keeps the config default. (Equivalent to a single-valued
	// "max_instructions" override axis.)
	MaxInstructions int `json:"max_instructions,omitempty"`
}

// specJSON is the wire form of SweepSpec with names instead of enums.
type specJSON struct {
	Platforms       []string          `json:"platforms,omitempty"`
	Modes           []string          `json:"modes,omitempty"`
	Workloads       []string          `json:"workloads,omitempty"`
	CustomWorkloads []config.Workload `json:"custom_workloads,omitempty"`
	Overrides       Overrides         `json:"overrides,omitempty"`
	MaxInstructions int               `json:"max_instructions,omitempty"`
}

// MarshalJSON writes platforms and modes by name.
func (s SweepSpec) MarshalJSON() ([]byte, error) {
	w := specJSON{
		Workloads:       s.Workloads,
		CustomWorkloads: s.CustomWorkloads,
		Overrides:       s.Overrides,
		MaxInstructions: s.MaxInstructions,
	}
	for _, p := range s.Platforms {
		w.Platforms = append(w.Platforms, p.String())
	}
	for i, m := range s.Modes {
		e := config.ExecDES
		if i < len(s.Execs) {
			e = s.Execs[i]
		}
		w.Modes = append(w.Modes, config.ModeString(m, e))
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses platform and mode names (ohmsim's spellings).
// Unknown fields are errors, so a misspelled axis fails loudly instead of
// silently running the wrong sweep.
func (s *SweepSpec) UnmarshalJSON(data []byte) error {
	var w specJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*s = SweepSpec{
		Workloads:       w.Workloads,
		CustomWorkloads: w.CustomWorkloads,
		Overrides:       w.Overrides,
		MaxInstructions: w.MaxInstructions,
	}
	for _, name := range w.Platforms {
		p, err := config.ParsePlatform(name)
		if err != nil {
			return err
		}
		s.Platforms = append(s.Platforms, p)
	}
	allDES := true
	for _, name := range w.Modes {
		m, e, err := config.ParseModes(name)
		if err != nil {
			return err
		}
		s.Modes = append(s.Modes, m)
		s.Execs = append(s.Execs, e)
		if e != config.ExecDES {
			allDES = false
		}
	}
	// Canonicalize the all-DES case to a nil Execs slice, so decoding a
	// spec written before execution modes existed round-trips unchanged.
	if allDES {
		s.Execs = nil
	}
	return nil
}

// LoadSpec reads a sweep from a JSON file. The file may be either a
// SweepSpec grid or a single config.Spec scenario document ({preset, mode,
// overrides, workload} — anything declaring one of those keys), which
// expands to a one-cell sweep, so every entry point accepts the same
// scenario files.
func LoadSpec(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("batch: spec %s: %w", path, err)
	}
	return s, nil
}

// ParseSpec decodes SweepSpec or scenario JSON (see LoadSpec). A document
// declaring only "overrides" is ambiguous — it is a valid one-cell
// scenario *and* a valid full-grid sweep — so it is rejected with
// instructions rather than silently meaning different things to different
// entry points.
func ParseSpec(data []byte) (SweepSpec, error) {
	var probe struct {
		Preset   json.RawMessage `json:"preset"`
		Mode     json.RawMessage `json:"mode"`
		Workload json.RawMessage `json:"workload"`

		Platforms       json.RawMessage `json:"platforms"`
		Modes           json.RawMessage `json:"modes"`
		Workloads       json.RawMessage `json:"workloads"`
		CustomWorkloads json.RawMessage `json:"custom_workloads"`

		Overrides json.RawMessage `json:"overrides"`
	}
	if err := json.Unmarshal(data, &probe); err == nil {
		scenario := probe.Preset != nil || probe.Mode != nil || probe.Workload != nil
		sweep := probe.Platforms != nil || probe.Modes != nil || probe.Workloads != nil ||
			probe.CustomWorkloads != nil
		switch {
		case scenario:
			var sc config.Spec
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sc); err != nil {
				return SweepSpec{}, err
			}
			return ScenarioSpec(sc)
		case !sweep && probe.Overrides != nil:
			return SweepSpec{}, fmt.Errorf("batch: ambiguous spec: an overrides-only document could be a one-run scenario or a full-grid sweep; add \"preset\" (scenario) or \"platforms\"/\"modes\"/\"workloads\" (sweep)")
		}
	}
	var s SweepSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// ScenarioSpec converts a resolved scenario document into its one-cell
// sweep: the cell's config is exactly Spec.Resolve's, so `ohmsim -spec`,
// `ohmbatch -spec` and a POSTed scenario produce identical cache keys and
// reports.
func ScenarioSpec(sc config.Spec) (SweepSpec, error) {
	r, err := sc.Resolve() // validates preset, overrides and workload
	if err != nil {
		return SweepSpec{}, err
	}
	spec := SweepSpec{
		Platforms: []config.Platform{r.Preset.Platform},
		Modes:     []config.MemMode{r.Config.Mode},
		Execs:     []config.ExecMode{r.Exec},
		Workloads: []string{r.Workload.Name},
	}
	if r.Custom {
		spec.CustomWorkloads = []config.Workload{r.Workload}
	}
	if len(sc.Overrides) > 0 {
		spec.Overrides = make(Overrides, len(sc.Overrides))
		for path, v := range sc.Overrides {
			spec.Overrides[path] = Axis{v}
		}
	}
	return spec, nil
}

// withDefaults fills empty axes with the full paper grid (or, when the
// spec defines custom workloads and names none, with the custom set).
func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Platforms) == 0 {
		s.Platforms = config.AllPlatforms()
	}
	if len(s.Modes) == 0 {
		s.Modes = config.AllModes()
	}
	if len(s.Workloads) == 0 {
		if len(s.CustomWorkloads) > 0 {
			for _, w := range s.CustomWorkloads {
				s.Workloads = append(s.Workloads, w.Name)
			}
		} else {
			s.Workloads = config.WorkloadNames()
		}
	}
	return s
}

// MaxCells bounds one spec's expansion. Override axes cross-multiply, so a
// few hundred bytes of JSON could otherwise demand billions of cells; the
// guard runs on the counted product before anything is allocated, keeping a
// hostile or fat-fingered spec from exhausting memory (the ohmserve daemon
// expands untrusted specs at submission).
const MaxCells = 1 << 18

// overrideCombos expands the override axes into the deterministic list of
// per-cell patches: paths sorted, the first path's axis outermost. A spec
// with no overrides yields one empty combo. Paths are normalized
// (lower-case, trimmed) the same way config.Set resolves them, so two
// spellings of one path are a loud conflict instead of a silent clobber.
func (s SweepSpec) overrideCombos() ([]map[string]interface{}, error) {
	ov := make(Overrides, len(s.Overrides))
	for p, a := range s.Overrides {
		key := strings.ToLower(strings.TrimSpace(p))
		if len(a) == 0 {
			return nil, fmt.Errorf("batch: override %q: empty value list", p)
		}
		if _, dup := ov[key]; dup {
			return nil, fmt.Errorf("batch: override path %q given twice (spellings are case-insensitive)", key)
		}
		ov[key] = a
	}
	if s.MaxInstructions > 0 {
		if _, dup := ov["max_instructions"]; dup {
			return nil, fmt.Errorf("batch: both the max_instructions field (-instr) and overrides[%q] are set; drop one (-set max_instructions=... replaces a spec file's axis)", "max_instructions")
		}
	}
	if len(ov) == 0 {
		return []map[string]interface{}{nil}, nil
	}
	paths := make([]string, 0, len(ov))
	n := 1
	for p := range ov {
		paths = append(paths, p)
		if n = n * len(ov[p]); n > MaxCells {
			return nil, fmt.Errorf("batch: override axes expand to more than %d combinations", MaxCells)
		}
	}
	sort.Strings(paths)
	combos := []map[string]interface{}{{}}
	for _, p := range paths {
		next := make([]map[string]interface{}, 0, len(combos)*len(ov[p]))
		for _, base := range combos {
			for _, v := range ov[p] {
				m := make(map[string]interface{}, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[p] = v
				next = append(next, m)
			}
		}
		combos = next
	}
	// The first sorted path varies slowest (outermost), matching the
	// historical waveguide loop position.
	return combos, nil
}

// Cells expands the spec into its deterministic cell list: modes outermost,
// then override combinations (sorted paths, first path slowest), platforms,
// workloads — the iteration order every consumer (and the result ordering)
// can rely on. Unknown workload names and invalid override paths or values
// fail here, naming the offender.
func (s SweepSpec) Cells() ([]Cell, error) {
	s = s.withDefaults()
	combos, err := s.overrideCombos()
	if err != nil {
		return nil, err
	}
	// Multiply stepwise so an adversarial spec with huge axis lists cannot
	// overflow the product past the cap (each step keeps n <= MaxCells
	// before the next bounded factor).
	n := 1
	for _, f := range []int{len(s.Modes), len(combos), len(s.Platforms), len(s.Workloads)} {
		if n = n * f; n > MaxCells {
			return nil, fmt.Errorf("batch: spec expands to more than %d cells", MaxCells)
		}
	}

	custom := make(map[string]*config.Workload, len(s.CustomWorkloads))
	for i := range s.CustomWorkloads {
		w := s.CustomWorkloads[i]
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("batch: custom workload: %w", err)
		}
		if _, dup := custom[w.Name]; dup {
			return nil, fmt.Errorf("batch: custom workload %q defined twice", w.Name)
		}
		custom[w.Name] = &w
	}
	defs := make(map[string]config.Workload, len(s.Workloads))
	for _, name := range s.Workloads {
		if cw := custom[name]; cw != nil {
			defs[name] = *cw
			continue
		}
		w, ok := config.WorkloadByName(name)
		if !ok {
			return nil, fmt.Errorf("batch: unknown workload %q (Table II names: %v; spec-local: %v)",
				name, config.WorkloadNames(), customNames(s.CustomWorkloads))
		}
		defs[name] = w
	}

	var cells []Cell
	for mi, m := range s.Modes {
		exec := config.ExecDES
		if mi < len(s.Execs) {
			exec = s.Execs[mi]
		}
		for _, combo := range combos {
			for _, p := range s.Platforms {
				for _, w := range s.Workloads {
					cfg := config.Default(p, m)
					if s.MaxInstructions > 0 {
						cfg.MaxInstructions = s.MaxInstructions
					}
					if err := cfg.ApplyOverrides(combo); err != nil {
						return nil, fmt.Errorf("batch: %w", err)
					}
					if err := config.ValidateTraceBudget(defs[w], &cfg); err != nil {
						return nil, fmt.Errorf("batch: %w", err)
					}
					var def *config.Workload
					if cw := custom[w]; cw != nil {
						// The resolved definition also canonicalizes: a
						// "custom" workload identical to its Table II
						// namesake keys as the named workload.
						if table, ok := config.WorkloadByName(w); !ok || table != *cw {
							def = cw
						}
					}
					cells = append(cells, Cell{
						Index:       len(cells),
						Exec:        exec,
						Workload:    w,
						WorkloadDef: def,
						Config:      cfg,
						Overrides:   combo,
					})
				}
			}
		}
	}
	return cells, nil
}

func customNames(ws []config.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// Per-mode cell cost estimates for dry-run reporting: a warm DES cell costs
// tens of milliseconds of event loop (BENCH baselines), an analytical cell
// microseconds of closed-form arithmetic. These are order-of-magnitude
// planning numbers for `ohmbatch -validate` and the POST /v1/sweeps dry
// run, not measurements.
const (
	DESCellCost        = 25 * time.Millisecond
	AnalyticalCellCost = 25 * time.Microsecond
)

// CostEstimate is a dry-run's view of what a spec will cost to execute
// cold: the per-mode cell split and the serial compute estimate (divide by
// the worker count for wall clock; cache hits make real runs cheaper).
type CostEstimate struct {
	Cells           int           `json:"cells"`
	DESCells        int           `json:"des_cells"`
	AnalyticalCells int           `json:"analytical_cells"`
	Estimated       time.Duration `json:"estimated_cost_ns"`
}

// EstimateCost sums the per-mode cost estimate over a cell list.
func EstimateCost(cells []Cell) CostEstimate {
	var ce CostEstimate
	ce.Cells = len(cells)
	for _, c := range cells {
		if c.Exec == config.ExecAnalytical {
			ce.AnalyticalCells++
		} else {
			ce.DESCells++
		}
	}
	ce.Estimated = time.Duration(ce.DESCells)*DESCellCost +
		time.Duration(ce.AnalyticalCells)*AnalyticalCellCost
	return ce
}
