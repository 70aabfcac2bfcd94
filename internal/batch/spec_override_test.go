package batch

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestWaveguidesAliasRejected: a top-level "waveguides" field is not part
// of the schema, so a spec that says it fails as an unknown field instead
// of silently sweeping nothing; the override axis is the one way to sweep
// waveguides.
func TestWaveguidesAliasRejected(t *testing.T) {
	_, err := ParseSpec([]byte(`{"platforms":["ohm-base"],"waveguides":[1,2,4]}`))
	if err == nil || !strings.Contains(err.Error(), "waveguides") {
		t.Fatalf("waveguides alias accepted: %v", err)
	}
	spec, err := ParseSpec([]byte(`{"platforms":["ohm-base"],"overrides":{"optical.waveguides":[1,2,4]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Overrides["optical.waveguides"]); got != 3 {
		t.Fatalf("override axis has %d values, want 3", got)
	}
}

func TestOverrideAxesCrossProductOrder(t *testing.T) {
	spec := SweepSpec{
		Platforms: []config.Platform{config.OhmBW},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
		Overrides: Overrides{
			"optical.waveguides": {1, 2},
			"max_instructions":   {100, 200},
		},
	}
	cells := mustCells(t, spec)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// Sorted paths: max_instructions before optical.waveguides, first path
	// outermost.
	want := []struct{ instr, wg int }{{100, 1}, {100, 2}, {200, 1}, {200, 2}}
	for i, w := range want {
		c := cells[i]
		if c.Config.MaxInstructions != w.instr || c.Config.Optical.Waveguides != w.wg {
			t.Fatalf("cells[%d] = instr %d wg %d, want %d/%d",
				i, c.Config.MaxInstructions, c.Config.Optical.Waveguides, w.instr, w.wg)
		}
		if c.Overrides["max_instructions"] != want[i].instr || c.Overrides["optical.waveguides"] != want[i].wg {
			t.Fatalf("cells[%d].Overrides = %v", i, c.Overrides)
		}
	}
}

func TestOverrideAxisErrorsNameThePath(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"unknown path", SweepSpec{Overrides: Overrides{"gpu.typo": {1}}}, "gpu.typo"},
		{"type mismatch", SweepSpec{Overrides: Overrides{"optical.waveguides": {"many"}}}, "optical.waveguides"},
		{"empty axis", SweepSpec{Overrides: Overrides{"optical.waveguides": {}}}, "optical.waveguides"},
		{"unknown workload", SweepSpec{Workloads: []string{"nope"}}, `"nope"`},
	}
	for _, c := range cases {
		if _, err := c.spec.Cells(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestCustomWorkloadCellsAndKeys(t *testing.T) {
	custom := config.Workload{Name: "streamwrite", APKI: 120, ReadRatio: 0.35, FootprintScale: 3, HotSkew: 0.8}
	spec := SweepSpec{
		Platforms:       []config.Platform{config.OhmBW},
		Modes:           []config.MemMode{config.Planar},
		Workloads:       []string{"lud", "streamwrite"},
		CustomWorkloads: []config.Workload{custom},
	}
	cells := mustCells(t, spec)
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].WorkloadDef != nil {
		t.Fatal("Table II cell grew a WorkloadDef")
	}
	if cells[1].WorkloadDef == nil || cells[1].WorkloadDef.Name != "streamwrite" {
		t.Fatalf("custom cell def = %+v", cells[1].WorkloadDef)
	}

	// A custom workload shadowing a Table II name must key by definition,
	// not name: same name + different shape -> different key.
	shadow := custom
	shadow.Name = "lud"
	shadowSpec := SweepSpec{
		Platforms:       []config.Platform{config.OhmBW},
		Modes:           []config.MemMode{config.Planar},
		Workloads:       []string{"lud"},
		CustomWorkloads: []config.Workload{shadow},
	}
	shadowCells := mustCells(t, shadowSpec)
	k0, err := cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := shadowCells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if k0 == ks {
		t.Fatal("custom workload named lud collides with Table II lud")
	}

	// A "custom" definition identical to Table II canonicalizes to the
	// named form — same key as a plain grid cell.
	table, _ := config.WorkloadByName("lud")
	canonSpec := shadowSpec
	canonSpec.CustomWorkloads = []config.Workload{table}
	canonCells := mustCells(t, canonSpec)
	if canonCells[0].WorkloadDef != nil {
		t.Fatal("Table II twin not canonicalized")
	}
	kc, err := canonCells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc != k0 {
		t.Fatal("canonicalized custom workload keys differently from the named workload")
	}

	// Workloads empty + custom defined: the custom set is the axis.
	implied := SweepSpec{
		Platforms:       []config.Platform{config.OhmBW},
		Modes:           []config.MemMode{config.Planar},
		CustomWorkloads: []config.Workload{custom},
	}
	if got := mustCells(t, implied); len(got) != 1 || got[0].Workload != "streamwrite" {
		t.Fatalf("implied custom axis = %+v", got)
	}

	dup := implied
	dup.CustomWorkloads = []config.Workload{custom, custom}
	if _, err := dup.Cells(); err == nil {
		t.Fatal("duplicate custom workload accepted")
	}
}

// TestCustomWorkloadSimulates runs a spec-defined workload through the real
// simulator on the runner and requires deterministic, cacheable results.
func TestCustomWorkloadSimulates(t *testing.T) {
	spec := SweepSpec{
		Platforms: []config.Platform{config.OhmBase},
		Modes:     []config.MemMode{config.Planar},
		CustomWorkloads: []config.Workload{{
			Name: "tiny", APKI: 100, ReadRatio: 0.5, FootprintScale: 2, HotSkew: 0.9}},
		MaxInstructions: 300,
	}
	cells := mustCells(t, spec)
	r := &Runner{Workers: 2, Cache: NewMemCache()}
	first, err := r.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Instructions == 0 || first[0].MemRequests == 0 {
		t.Fatalf("custom workload produced an empty report: %+v", first[0])
	}
	again, err := r.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("custom workload cache stats = %+v, want 1 miss + 1 hit", st)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("warm rerun of a custom workload differs")
	}
}

// TestScenarioSpecMatchesResolve: a scenario document expands to exactly
// the config its own Resolve produces — the property that makes ohmsim,
// ohmbatch and the daemon interchangeable entry points.
func TestScenarioSpecMatchesResolve(t *testing.T) {
	sc := config.Spec{
		Preset: "ohm-base",
		Mode:   "two-level",
		Overrides: map[string]interface{}{
			"xpoint.write_latency_ns": 1200,
			"optical.waveguides":      2,
			"max_instructions":        500,
		},
		Workload: &config.WorkloadSpec{Inline: &config.Workload{
			Name: "streamwrite", APKI: 120, ReadRatio: 0.35, FootprintScale: 3, HotSkew: 0.8}},
	}
	resolved, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ScenarioSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	cells := mustCells(t, spec)
	if len(cells) != 1 {
		t.Fatalf("scenario expanded to %d cells", len(cells))
	}
	if !reflect.DeepEqual(cells[0].Config, resolved.Config) {
		t.Fatalf("scenario cell config differs from Resolve:\n%+v\n%+v", cells[0].Config, resolved.Config)
	}
	if cells[0].WorkloadDef == nil || *cells[0].WorkloadDef != resolved.Workload {
		t.Fatalf("scenario cell workload = %+v, want %+v", cells[0].WorkloadDef, resolved.Workload)
	}

	// And it survives the wire: parse the scenario JSON through ParseSpec.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	parsedCells := mustCells(t, parsed)
	if len(parsedCells) != 1 || !reflect.DeepEqual(parsedCells[0].Config, resolved.Config) {
		t.Fatal("ParseSpec(scenario JSON) cell differs from Resolve")
	}
	k0, err := cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := parsedCells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if k0 != k1 {
		t.Fatal("scenario cache key unstable across JSON round trip")
	}
}

func TestParseSpecSniffsBothForms(t *testing.T) {
	sweep, err := ParseSpec([]byte(`{"platforms":["ohm-bw"],"modes":["planar"],"workloads":["lud"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Platforms) != 1 || sweep.Platforms[0] != config.OhmBW {
		t.Fatalf("sweep form = %+v", sweep)
	}
	one, err := ParseSpec([]byte(`{"preset":"oracle","workload":"lud"}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := mustCells(t, one)
	if len(cells) != 1 || cells[0].Config.Platform != config.Oracle || cells[0].Workload != "lud" {
		t.Fatalf("scenario form = %+v", cells)
	}
	if _, err := ParseSpec([]byte(`{"preset":"oracle","platfroms":["x"]}`)); err == nil {
		t.Fatal("unknown scenario field accepted")
	}
	if _, err := ParseSpec([]byte(`{"platfroms":["x"]}`)); err == nil {
		t.Fatal("unknown sweep field accepted")
	}
}

// TestSweepSpecJSONRoundTripWithOverrides: encode -> decode -> expand gives
// the same configs and cache keys (values change Go type across JSON — int
// to float64 — but resolve identically).
func TestSweepSpecJSONRoundTripWithOverrides(t *testing.T) {
	spec := SweepSpec{
		Platforms: []config.Platform{config.OhmBase},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
		Overrides: Overrides{
			"optical.waveguides":      {1, 2},
			"xpoint.write_latency_ns": {900.5},
		},
	}
	orig := mustCells(t, spec)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Single-valued axes marshal as scalars and come back as such.
	if !strings.Contains(string(data), `"xpoint.write_latency_ns":900.5`) {
		t.Fatalf("single-valued axis not scalar on the wire: %s", data)
	}
	again := mustCells(t, back)
	if len(orig) != len(again) {
		t.Fatalf("cell counts differ: %d vs %d", len(orig), len(again))
	}
	for i := range orig {
		if !reflect.DeepEqual(orig[i].Config, again[i].Config) {
			t.Fatalf("cell %d config changed across the wire", i)
		}
		k0, err := orig[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		k1, err := again[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if k0 != k1 {
			t.Fatalf("cell %d key changed across the wire", i)
		}
	}
}

// TestSpecExpansionGuards covers the loud-failure paths added around axis
// expansion: the cell-count cap (a few hundred bytes of JSON must not
// demand billions of cells), case-folded duplicate paths, and the
// max_instructions field-vs-axis conflict.
func TestSpecExpansionGuards(t *testing.T) {
	axis := func(n int) Axis {
		a := make(Axis, n)
		for i := range a {
			a[i] = i + 1
		}
		return a
	}
	bomb := SweepSpec{Overrides: Overrides{
		"gpu.sms":             axis(100),
		"gpu.l1_ways":         axis(100),
		"gpu.l2_ways":         axis(100),
		"dram.banks":          axis(100),
		"xpoint.read_buf_ent": axis(100),
	}}
	if _, err := bomb.Cells(); err == nil || !strings.Contains(err.Error(), "combinations") {
		t.Fatalf("axis bomb not capped: %v", err)
	}
	wide := SweepSpec{Overrides: Overrides{"optical.waveguides": axis(2000)}}
	if _, err := wide.Cells(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("cell-count bomb not capped: %v", err) // 2000*140 > MaxCells
	}

	caseDup := SweepSpec{Overrides: Overrides{
		"optical.waveguides": {1},
		"Optical.Waveguides": {2},
	}}
	if _, err := caseDup.Cells(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("case-folded duplicate path accepted: %v", err)
	}

	conflict := SweepSpec{
		MaxInstructions: 100,
		Overrides:       Overrides{"max_instructions": {200}},
	}
	if _, err := conflict.Cells(); err == nil || !strings.Contains(err.Error(), "max_instructions") {
		t.Fatalf("field-vs-axis max_instructions conflict accepted: %v", err)
	}
	// Mixed-case paths still apply (normalized), labelled by the canonical
	// spelling.
	mixed := SweepSpec{
		Platforms: []config.Platform{config.OhmBW},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"lud"},
		Overrides: Overrides{"Optical.Waveguides": {3}},
	}
	cells := mustCells(t, mixed)
	if cells[0].Config.Optical.Waveguides != 3 || cells[0].Overrides["optical.waveguides"] != 3 {
		t.Fatalf("mixed-case path mishandled: %+v", cells[0].Overrides)
	}
}

// TestParseSpecRejectsAmbiguousOverridesOnly: an overrides-only document is
// a valid scenario AND a valid sweep, so it must be rejected rather than
// meaning one cell to ohmsim and 140 cells to ohmbatch.
func TestParseSpecRejectsAmbiguousOverridesOnly(t *testing.T) {
	_, err := ParseSpec([]byte(`{"overrides":{"optical.waveguides":2}}`))
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("overrides-only doc not rejected: %v", err)
	}
	// Adding either discriminant resolves it.
	if _, err := ParseSpec([]byte(`{"preset":"ohm-bw","overrides":{"optical.waveguides":2}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec([]byte(`{"modes":["planar"],"overrides":{"optical.waveguides":2}}`)); err != nil {
		t.Fatal(err)
	}
	// The historical empty document stays a full-grid sweep.
	if _, err := ParseSpec([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
}

// TestCellCountGuardResistsHugeAxes: the cap must trip on the counted
// product before allocation, even when single grid axes are enormous.
func TestCellCountGuardResistsHugeAxes(t *testing.T) {
	many := make([]string, 300_000)
	for i := range many {
		many[i] = "lud"
	}
	spec := SweepSpec{Workloads: many} // 7 platforms x 2 modes x 300k
	if _, err := spec.Cells(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("huge workload axis not capped: %v", err)
	}
}

// TestResourceBudgetsRejectHostileScenarios: submission-time validation
// must refuse workloads and configs whose traces could not be allocated.
func TestResourceBudgetsRejectHostileScenarios(t *testing.T) {
	_, err := ScenarioSpec(config.Spec{Workload: &config.WorkloadSpec{Inline: &config.Workload{
		Name: "x", APKI: 1, ReadRatio: 0.5, FootprintScale: 1e10, HotSkew: 0.5}}})
	if err == nil || !strings.Contains(err.Error(), "footprint_scale") {
		t.Fatalf("terabyte footprint accepted: %v", err)
	}
	_, err = ScenarioSpec(config.Spec{Overrides: map[string]interface{}{"max_instructions": 1e12}})
	if err == nil || !strings.Contains(err.Error(), "trace budget") {
		t.Fatalf("terabyte instruction budget accepted: %v", err)
	}
	_, err = ScenarioSpec(config.Spec{Overrides: map[string]interface{}{"gpu.sms": 1 << 40, "gpu.warps_per_sm": 1 << 40}})
	if err == nil {
		t.Fatal("overflowing warp count accepted")
	}
}

// TestTraceBudgetCoversPageState: tiny page sizes must not multiply a
// legal footprint into an unaffordable per-page allocation, at either spec
// entry point. One-byte pages need one-byte lines, which validate only on
// a platform without XPoint.
func TestTraceBudgetCoversPageState(t *testing.T) {
	_, err := ScenarioSpec(config.Spec{Preset: "oracle", Overrides: map[string]interface{}{
		"gpu.line_bytes":    1,
		"memory.page_bytes": 1,
	}, Workload: &config.WorkloadSpec{Inline: &config.Workload{
		Name: "x", APKI: 1, ReadRatio: 0.5, FootprintScale: 1024, HotSkew: 0.5}}})
	if err == nil || !strings.Contains(err.Error(), "trace pages") {
		t.Fatalf("page-state bomb accepted via scenario: %v", err)
	}
	spec := SweepSpec{
		Platforms: []config.Platform{config.Oracle},
		Modes:     []config.MemMode{config.Planar},
		Workloads: []string{"pagerank"},
		Overrides: Overrides{"gpu.line_bytes": {1}, "memory.page_bytes": {1}},
	}
	if _, err := spec.Cells(); err == nil || !strings.Contains(err.Error(), "trace pages") {
		t.Fatalf("page-state bomb accepted via sweep: %v", err)
	}
}
