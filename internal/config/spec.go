package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Spec is the declarative scenario document: one JSON-serializable value
// that fully describes a run. It resolves to a complete Config plus a
// workload, so "a new platform variant" or "a new workload" is a spec file,
// not a Go change:
//
//	{
//	  "preset": "ohm-base",
//	  "mode": "two-level",
//	  "overrides": {"xpoint.write_latency_ns": 1200, "optical.waveguides": 2},
//	  "workload": {"name": "streamwrite", "apki": 120, "read_ratio": 0.35,
//	               "footprint_scale": 3.0, "hot_skew": 0.8}
//	}
//
// Empty fields take ohmsim's defaults: preset "ohm-bw", mode "planar",
// workload "pagerank". The workload is either a Table II name (JSON string)
// or an inline definition (JSON object). Resolution is canonical: encoding,
// decoding and resolving a spec yields the same Config — and therefore the
// same batch cache key — as resolving the original.
type Spec struct {
	// Preset names a platform preset from the registry (the seven paper
	// platforms); empty means "ohm-bw".
	Preset string `json:"preset,omitempty"`
	// Mode is the combined mode token: a memory mode ("planar" or
	// "two-level"), optionally joined with an execution mode using "+"
	// ("two-level+analytical"). The bare token "analytical" selects planar
	// memory with analytical execution. Empty means planar memory evaluated
	// by the discrete-event simulator.
	Mode string `json:"mode,omitempty"`
	// Overrides patches individual config fields by dotted path after the
	// preset is built; see OverridePaths for the schema.
	Overrides map[string]interface{} `json:"overrides,omitempty"`
	// Workload selects a Table II workload by name or defines one inline.
	Workload *WorkloadSpec `json:"workload,omitempty"`
}

// DefaultPreset is the preset an empty Spec.Preset resolves to.
const DefaultPreset = "ohm-bw"

// DefaultWorkload is the workload an empty Spec.Workload resolves to.
const DefaultWorkload = "pagerank"

// WorkloadSpec is a workload reference: a Table II name, or an inline
// custom definition. On the wire it is either a JSON string or a workload
// object.
type WorkloadSpec struct {
	// Name references a Table II workload; unset when Inline is given.
	Name string
	// Inline is a full custom workload definition.
	Inline *Workload
}

// MarshalJSON writes the name string or the inline object.
func (w WorkloadSpec) MarshalJSON() ([]byte, error) {
	if w.Inline != nil {
		return json.Marshal(w.Inline)
	}
	return json.Marshal(w.Name)
}

// UnmarshalJSON accepts a workload name string or an inline definition
// object (unknown object fields are errors, so typos fail loudly).
func (w *WorkloadSpec) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '"' {
		w.Inline = nil
		return json.Unmarshal(data, &w.Name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var def Workload
	if err := dec.Decode(&def); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	w.Name = ""
	w.Inline = &def
	return nil
}

// Scenario is a resolved Spec: the runnable configuration plus the workload
// to drive it with.
type Scenario struct {
	// Preset is the registry entry the config was built from.
	Preset Preset
	// Config is the fully-resolved, validated configuration.
	Config Config
	// Workload is the resolved workload definition.
	Workload Workload
	// Custom reports whether Workload is an inline definition rather than a
	// Table II entry — custom workloads carry their full definition into
	// cache keys and trace generation. An inline definition identical to
	// its Table II namesake is canonicalized back to the named form.
	Custom bool
	// Exec selects discrete-event simulation (default) or the closed-form
	// analytical twin.
	Exec ExecMode
}

// Resolve builds the scenario: preset lookup, mode parse, override patch,
// workload resolution, then validation. All errors name what failed — an
// unknown preset lists the registry, a bad override names its path.
func (s Spec) Resolve() (Scenario, error) {
	presetName := s.Preset
	if presetName == "" {
		presetName = DefaultPreset
	}
	pre, ok := LookupPreset(presetName)
	if !ok {
		return Scenario{}, fmt.Errorf("config: spec: unknown preset %q (%s)",
			s.Preset, strings.Join(PresetNames(), "|"))
	}
	modeName := s.Mode
	if modeName == "" {
		modeName = Planar.String()
	}
	mode, exec, err := ParseModes(modeName)
	if err != nil {
		return Scenario{}, fmt.Errorf("config: spec: %w", err)
	}
	cfg := Default(pre.Platform, mode)
	if err := cfg.ApplyOverrides(s.Overrides); err != nil {
		return Scenario{}, err
	}

	ws := s.Workload
	if ws == nil {
		ws = &WorkloadSpec{Name: DefaultWorkload}
	}
	var (
		w      Workload
		custom bool
	)
	switch {
	case ws.Inline != nil:
		w = *ws.Inline
		if err := w.Validate(); err != nil {
			return Scenario{}, fmt.Errorf("config: spec: %w", err)
		}
		// Canonicalize: an inline copy of a Table II workload keys and runs
		// exactly as the named workload would.
		if table, ok := WorkloadByName(w.Name); !ok || table != w {
			custom = true
		}
	case ws.Name != "":
		w, ok = WorkloadByName(ws.Name)
		if !ok {
			return Scenario{}, fmt.Errorf("config: spec: unknown workload %q (Table II names: %v)",
				ws.Name, WorkloadNames())
		}
	default:
		return Scenario{}, fmt.Errorf("config: spec: workload must be a Table II name or an inline definition")
	}

	if err := cfg.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("config: spec: %w", err)
	}
	if err := ValidateTraceBudget(w, &cfg); err != nil {
		return Scenario{}, fmt.Errorf("config: spec: %w", err)
	}
	return Scenario{Preset: pre, Config: cfg, Workload: w, Custom: custom, Exec: exec}, nil
}

// MaxTracePages caps a trace's page count (footprint / page size). Trace
// generation allocates per-page rank state, and both factors are reachable
// from untrusted specs (footprint_scale, memory.page_bytes), so the
// product must be bounded like the instruction budget is.
const MaxTracePages = 1 << 23

// ValidateTraceBudget rejects (workload, config) pairs whose trace would
// need more per-page state than MaxTracePages allows. Both spec entry
// points (scenario resolution and sweep expansion) run it on every cell.
func ValidateTraceBudget(w Workload, c *Config) error {
	pages := w.FootprintScale * FootprintUnit / float64(c.Memory.PageBytes)
	if pages > MaxTracePages {
		return fmt.Errorf("config: workload %q: footprint_scale %g over %d-byte pages needs %.0f trace pages (limit %d); raise memory.page_bytes or shrink the footprint",
			w.Name, w.FootprintScale, c.Memory.PageBytes, pages, MaxTracePages)
	}
	return nil
}

// LoadSpec reads a scenario spec from a JSON file; unknown top-level fields
// are errors so a misspelled key fails instead of being ignored.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("config: spec %s: %w", path, err)
	}
	return s, nil
}

// Preset is a named platform configuration: the serializable identity the
// spec layer exposes instead of the Platform enum. The seven paper
// platforms are the built-in registry; a preset in a memory mode resolves
// to exactly Default(platform, mode), so preset-built cells keep the cache
// keys they have always had.
type Preset struct {
	// Name is the canonical spec name ("ohm-bw").
	Name string `json:"name"`
	// Platform is the simulator platform the preset builds.
	Platform Platform `json:"-"`
	// Title is a one-line description for listings.
	Title string `json:"title"`
}

var presetList = buildPresets()

func buildPresets() []Preset {
	titles := map[Platform]string{
		Origin:  "baseline GPU: DRAM-only over electrical channels, host spill via PCIe",
		Hetero:  "DRAM+XPoint over electrical channels, controller-driven migration",
		OhmBase: "DRAM+XPoint over the optical channel, controller-driven migration",
		AutoRW:  "Ohm-base plus the auto-read/write (snarf) function",
		OhmWOM:  "auto-rw plus swap and reverse-write with WOM-coded dual routes",
		OhmBW:   "full-bandwidth dual routes via half-coupled MRR transmitters (4x laser power)",
		Oracle:  "ideal all-DRAM memory of the full heterogeneous capacity on the optical channel",
	}
	ps := make([]Preset, 0, len(platformNames))
	for _, p := range AllPlatforms() {
		ps = append(ps, Preset{
			Name:     normalizeName(p.String()),
			Platform: p,
			Title:    titles[p],
		})
	}
	return ps
}

// Presets lists the registered platform presets in the paper's order.
func Presets() []Preset {
	out := make([]Preset, len(presetList))
	copy(out, presetList)
	return out
}

// PresetNames lists the canonical preset names in the paper's order.
func PresetNames() []string {
	names := make([]string, len(presetList))
	for i, p := range presetList {
		names[i] = p.Name
	}
	return names
}

// LookupPreset resolves a preset by name (case-insensitive, "-" and "_"
// interchangeable).
func LookupPreset(name string) (Preset, bool) {
	n := normalizeName(name)
	for _, p := range presetList {
		if p.Name == n {
			return p, true
		}
	}
	return Preset{}, false
}
