package config

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestPresetsResolveIdenticalToDefault is the acceptance criterion that
// keeps every batch cache key stable across the spec redesign: building a
// platform through the preset registry must be byte-identical to
// config.Default for all seven platforms in both modes.
func TestPresetsResolveIdenticalToDefault(t *testing.T) {
	if len(Presets()) != len(AllPlatforms()) {
		t.Fatalf("preset registry has %d entries, want %d", len(Presets()), len(AllPlatforms()))
	}
	for _, pre := range Presets() {
		for _, m := range AllModes() {
			want := Default(pre.Platform, m)
			sc, err := Spec{Preset: pre.Name, Mode: m.String()}.Resolve()
			if err != nil {
				t.Fatalf("Spec{%s,%s}.Resolve: %v", pre.Name, m, err)
			}
			if !reflect.DeepEqual(sc.Config, want) {
				t.Fatalf("spec-resolved %s/%s differs from Default", pre.Name, m)
			}
			gj, _ := json.Marshal(sc.Config)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("spec-resolved %s/%s JSON differs from Default", pre.Name, m)
			}
			if sc.Custom {
				t.Fatalf("default workload resolved as custom")
			}
			if sc.Workload.Name != DefaultWorkload {
				t.Fatalf("default workload = %q", sc.Workload.Name)
			}
		}
	}
}

func TestLookupPresetAndParsePlatformAgree(t *testing.T) {
	for _, name := range []string{"ohm-bw", "OHM_BW", "Ohm-base", "oracle"} {
		pre, ok := LookupPreset(name)
		if !ok {
			t.Fatalf("LookupPreset(%q) missed", name)
		}
		p, err := ParsePlatform(name)
		if err != nil || p != pre.Platform {
			t.Fatalf("ParsePlatform(%q) = %v, %v; preset says %v", name, p, err, pre.Platform)
		}
	}
	_, err := ParsePlatform("nope")
	if err == nil {
		t.Fatal("ParsePlatform accepted unknown name")
	}
	for _, name := range PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParsePlatform error %q does not enumerate %q", err, name)
		}
	}
}

func TestOverrideSetKnownPaths(t *testing.T) {
	cfg := Default(OhmBW, Planar)
	cases := []struct {
		path  string
		value interface{}
		check func() bool
	}{
		{"optical.waveguides", float64(4), func() bool { return cfg.Optical.Waveguides == 4 }},
		{"xpoint.write_latency_ns", float64(1200), func() bool { return cfg.XPoint.WriteLatency == 1200*sim.Nanosecond }},
		{"xpoint.read_latency_ns", 95.5, func() bool { return cfg.XPoint.ReadLatency == sim.Time(95.5*float64(sim.Nanosecond)) }},
		{"gpu.mshr_entries", 16, func() bool { return cfg.GPU.MSHREntries == 16 }},
		{"gpu.noc_detailed", true, func() bool { return cfg.GPU.NoCDetailed }},
		{"dram.refresh_enable", "true", func() bool { return cfg.DRAM.RefreshEnable }},
		{"dram.trcd_ns", 30, func() bool { return cfg.DRAM.TRCD == 30*sim.Nanosecond }},
		{"memory.dram_bytes", float64(1 << 20), func() bool { return cfg.Memory.DRAMBytes == 1<<20 }},
		{"memory.xpoint_bytes", "8388608", func() bool { return cfg.Memory.XPointBytes == 8<<20 }},
		{"optical.laser_boost", 2.5, func() bool { return cfg.Optical.LaserBoost == 2.5 }},
		{"electrical.pj_per_bit", 0.9, func() bool { return cfg.Electrical.PJPerBit == 0.9 }},
		{"seed", float64(42), func() bool { return cfg.Seed == 42 }},
		{"max_instructions", "4000", func() bool { return cfg.MaxInstructions == 4000 }},
		{"gpu.sms", 8, func() bool { return cfg.GPU.SMs == 8 }},
		{"gpu.l2_size_bytes", 1 << 15, func() bool { return cfg.GPU.L2SizeBytes == 1<<15 }},
		{"xpoint.wear_limit", float64(5000), func() bool { return cfg.XPoint.WearLimit == 5000 }},
	}
	for _, c := range cases {
		if err := cfg.Set(c.path, c.value); err != nil {
			t.Fatalf("Set(%q, %v): %v", c.path, c.value, err)
		}
		if !c.check() {
			t.Fatalf("Set(%q, %v) did not land", c.path, c.value)
		}
	}
}

func TestOverrideErrorsNameThePath(t *testing.T) {
	cfg := Default(OhmBW, Planar)
	cases := []struct {
		path  string
		value interface{}
	}{
		{"optical.wavelengths", 4},         // unknown leaf
		{"nope.waveguides", 4},             // unknown section
		{"gpu.mshr_entries", "many"},       // unparsable int
		{"gpu.mshr_entries", 1.5},          // non-integral
		{"optical.waveguides", true},       // bool for int
		{"gpu.noc_detailed", 3.0},          // number for bool
		{"xpoint.wear_limit", float64(-1)}, // negative for uint
		{"dram.trcd_ns", -30},              // negative duration
		{"optical.freq_hz", "NaN"},         // non-finite float
		{"optical.freq_hz", "Inf"},         // non-finite float
		{"optical.freq_hz", "-Inf"},        // non-finite float
		{"optical.freq_hz", math.NaN()},    // non-finite, from Go
		{"dram.trcd_ns", "+Inf"},           // non-finite duration
		{"platform", "oracle"},             // identity, not overridable
		{"mode", "planar"},                 // identity, not overridable
		{"memory.mode", float64(1)},        // identity, not overridable
	}
	for _, c := range cases {
		err := cfg.Set(c.path, c.value)
		if err == nil {
			t.Fatalf("Set(%q, %v) accepted", c.path, c.value)
		}
		if !strings.Contains(err.Error(), c.path) {
			t.Fatalf("error %q does not name path %q", err, c.path)
		}
	}
	// Unknown paths sharing a known leaf get a suggestion.
	err := cfg.Set("waveguides", 4)
	if err == nil || !strings.Contains(err.Error(), "optical.waveguides") {
		t.Fatalf("no suggestion for bare leaf: %v", err)
	}
}

func TestApplyOverridesDeterministicAndAtLeastFirstError(t *testing.T) {
	cfg := Default(Origin, Planar)
	err := cfg.ApplyOverrides(map[string]interface{}{
		"max_instructions": 1000,
		"zzz.bad":          1,
		"aaa.bad":          1,
	})
	if err == nil || !strings.Contains(err.Error(), "aaa.bad") {
		t.Fatalf("ApplyOverrides should fail on the first sorted path: %v", err)
	}
}

func TestOverridePathsSchema(t *testing.T) {
	paths := OverridePaths()
	byName := map[string]string{}
	for _, p := range paths {
		byName[p.Path] = p.Type
	}
	want := map[string]string{
		"optical.waveguides":            "int",
		"xpoint.write_latency_ns":       "duration_ns",
		"gpu.mshr_entries":              "int",
		"gpu.interconnect_latency_ns":   "duration_ns",
		"dram.burst_ns":                 "duration_ns",
		"dram.refresh_interval_ns":      "duration_ns",
		"optical.waveguide_loss_db_cm":  "float",
		"memory.xpoint_bytes":           "int",
		"gpu.noc_detailed":              "bool",
		"xpoint.wear_limit":             "uint",
		"seed":                          "uint",
		"max_instructions":              "int",
		"optical.mrr_tuning_fj_per_bit": "float",
		"electrical.bandwidth_scale":    "float",
	}
	for p, typ := range want {
		if got, ok := byName[p]; !ok || got != typ {
			t.Fatalf("OverridePaths missing %s (%s); got %q ok=%v", p, typ, got, ok)
		}
	}
	for _, forbidden := range []string{"platform", "mode", "memory.mode"} {
		if _, ok := byName[forbidden]; ok {
			t.Fatalf("identity field %q must not be overridable", forbidden)
		}
	}
}

// TestSpecRoundTripCanonical: JSON encode -> decode -> resolve produces the
// same Config (and thus cache key) as resolving the original spec.
func TestSpecRoundTripCanonical(t *testing.T) {
	specs := []Spec{
		{},
		{Preset: "oracle", Mode: "two-level"},
		{Preset: "ohm-base", Mode: "planar",
			Overrides: map[string]interface{}{"optical.waveguides": 2, "xpoint.write_latency_ns": 900.5},
			Workload:  &WorkloadSpec{Name: "lud"}},
		{Preset: "hetero", Mode: "two-level",
			Overrides: map[string]interface{}{"gpu.mshr_entries": 32, "max_instructions": 2000},
			Workload: &WorkloadSpec{Inline: &Workload{
				Name: "streamwrite", APKI: 120, ReadRatio: 0.35, FootprintScale: 3, HotSkew: 0.8}}},
	}
	for i, s := range specs {
		orig, err := s.Resolve()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		again, err := back.Resolve()
		if err != nil {
			t.Fatalf("spec %d re-resolve: %v", i, err)
		}
		if !reflect.DeepEqual(orig.Config, again.Config) {
			t.Fatalf("spec %d: round trip changed the resolved config", i)
		}
		if orig.Workload != again.Workload || orig.Custom != again.Custom {
			t.Fatalf("spec %d: round trip changed the workload (%+v vs %+v)", i, orig.Workload, again.Workload)
		}
	}
}

func TestSpecInlineTableIIWorkloadCanonicalizes(t *testing.T) {
	table, _ := WorkloadByName("pagerank")
	sc, err := Spec{Workload: &WorkloadSpec{Inline: &table}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Custom {
		t.Fatal("inline copy of a Table II workload must canonicalize to the named form")
	}
	// A modified copy is genuinely custom.
	mod := table
	mod.HotSkew = 2.0
	sc, err = Spec{Workload: &WorkloadSpec{Inline: &mod}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Custom {
		t.Fatal("modified inline workload must be custom")
	}
}

func TestSpecResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown preset", Spec{Preset: "nope"}, "unknown preset"},
		{"unknown mode", Spec{Mode: "sideways"}, "unknown memory mode"},
		{"bad override path", Spec{Overrides: map[string]interface{}{"gpu.typo": 1}}, "gpu.typo"},
		{"bad override type", Spec{Overrides: map[string]interface{}{"gpu.mshr_entries": "lots"}}, "gpu.mshr_entries"},
		{"unknown workload", Spec{Workload: &WorkloadSpec{Name: "nope"}}, "unknown workload"},
		{"invalid inline workload", Spec{Workload: &WorkloadSpec{Inline: &Workload{Name: "x"}}}, "apki"},
		{"invalid resolved config", Spec{Overrides: map[string]interface{}{"optical.waveguides": 0}}, "waveguides"},
	}
	for _, c := range cases {
		_, err := c.spec.Resolve()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestWorkloadSpecJSONForms(t *testing.T) {
	var w WorkloadSpec
	if err := json.Unmarshal([]byte(`"sssp"`), &w); err != nil || w.Name != "sssp" || w.Inline != nil {
		t.Fatalf("name form: %+v, %v", w, err)
	}
	inline := `{"name":"mix","apki":50,"read_ratio":0.5,"footprint_scale":2,"hot_skew":1}`
	if err := json.Unmarshal([]byte(inline), &w); err != nil || w.Inline == nil || w.Inline.Name != "mix" {
		t.Fatalf("inline form: %+v, %v", w, err)
	}
	if err := json.Unmarshal([]byte(`{"name":"mix","apki":50,"reed_ratio":0.5}`), &w); err == nil {
		t.Fatal("unknown inline field accepted")
	}
	data, err := json.Marshal(WorkloadSpec{Name: "lud"})
	if err != nil || string(data) != `"lud"` {
		t.Fatalf("marshal name form = %s, %v", data, err)
	}
	data, err = json.Marshal(WorkloadSpec{Inline: &Workload{Name: "mix", APKI: 50, ReadRatio: 0.5, FootprintScale: 2, HotSkew: 1}})
	if err != nil || !strings.Contains(string(data), `"apki":50`) {
		t.Fatalf("marshal inline form = %s, %v", data, err)
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"MSHREntries":       "mshr_entries",
		"L1SizeBytes":       "l1_size_bytes",
		"HCMRRTune":         "hcmrr_tune",
		"TRCD":              "trcd",
		"CoreFreqHz":        "core_freq_hz",
		"DRAMBytes":         "dram_bytes",
		"BaselineDRAMBytes": "baseline_dram_bytes",
		"PJPerBit":          "pj_per_bit",
		"WarpsPerSM":        "warps_per_sm",
		"StartGapK":         "start_gap_k",
		"RegisterKB":        "register_kb",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Fatalf("snakeCase(%s) = %s, want %s", in, got, want)
		}
	}
}

// TestSpecDocCoversEveryOverridePath keeps docs/reference/spec.md's path
// table and the override registry equal, both ways: every registered path
// has a row with its wire type, and every row names a registered path, so
// a row cannot outlive the knob it documents.
func TestSpecDocCoversEveryOverridePath(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "reference", "spec.md"))
	if err != nil {
		t.Fatalf("reference page missing: %v", err)
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| (int|uint|float|bool|duration_ns) \\|$")
	rows := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = m[2]
	}
	registered := map[string]bool{}
	for _, p := range OverridePaths() {
		registered[p.Path] = true
		if typ, ok := rows[p.Path]; !ok {
			t.Errorf("docs/reference/spec.md has no row for override path %q", p.Path)
		} else if typ != p.Type {
			t.Errorf("docs/reference/spec.md types %q as %s, want %s", p.Path, typ, p.Type)
		}
	}
	for path := range rows {
		if !registered[path] {
			t.Errorf("docs/reference/spec.md documents %q, which is not an override path", path)
		}
	}
}

func TestApplyOverridesRejectsCaseFoldedDuplicates(t *testing.T) {
	cfg := Default(OhmBW, Planar)
	err := cfg.ApplyOverrides(map[string]interface{}{
		"optical.waveguides": 2,
		"Optical.Waveguides": 4,
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("case-folded duplicate accepted: %v", err)
	}
}
