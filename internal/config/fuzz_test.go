package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecResolve covers the scenario document path (ohmsim -spec,
// ohmserve {"scenario": ...}): arbitrary JSON must either fail decoding,
// fail Resolve with a named error, or resolve to a validated scenario —
// never panic.
func FuzzSpecResolve(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"preset":"ohm-base"}`,
		`{"preset":"ohm-bw","mode":"two-level","workload":"pagerank"}`,
		`{"preset":"origin","overrides":{"gpu.sms":16}}`,
		`{"overrides":{"xpoint.write_latency_ns":-1}}`,
		`{"overrides":{"xpoint.write_latency_ns":1e308}}`,
		`{"overrides":{"memory.page_bytes":0}}`,
		`{"workload":{"name":"w","apki":100,"read_ratio":0.5,"footprint_scale":1e30,"hot_skew":0.5}}`,
		`{"workload":{"name":"w","apki":-1,"read_ratio":2,"footprint_scale":0,"hot_skew":-3}}`,
		`{"workload":""}`,
		`{"preset":"oHm_BaSe","mode":"2lm"}`,
		`{"mode":"nope"}`,
		`{"mode":"analytical"}`,
		`{"preset":"ohm-bw","mode":"two-level+analytical","workload":"pagerank"}`,
		`{"mode":"planar+des"}`,
		`{"mode":"twin+two-level"}`,
		`{"mode":"analytical+analytical"}`,
		`{"mode":"+"}`,
		`null`,
		`{"preset":"hetero","mode":"two-level","overrides":{"gpu.line_bytes":1}}`,
		`{"preset":"ohm-bw","mode":"two-level","overrides":{"memory.xpoint_bytes":3221225472}}`,
		`{"overrides":{"gpu.l1_ways":0}}`,
		`{"overrides":{"gpu.l2_size_bytes":3}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return
		}
		sc, err := s.Resolve()
		if err != nil {
			return
		}
		// A resolved scenario must survive the canonical round trip: the
		// spec layer promises encode→decode→resolve reaches the same
		// config (and therefore the same cache key).
		if err := sc.Config.Validate(); err != nil {
			t.Fatalf("resolved config fails its own validation: %v", err)
		}
	})
}

// FuzzSet covers the dotted-path override layer with CLI-shaped string
// values ("-set path=value"): unknown paths and untypeable values must
// return errors naming the path, never panic, and a successful Set must
// leave a config that still marshals (cache keys hash the JSON form).
func FuzzSet(f *testing.F) {
	type seed struct{ path, value string }
	seeds := []seed{
		{"optical.waveguides", "4"},
		{"xpoint.write_latency_ns", "900.5"},
		{"gpu.sms", "-3"},
		{"seed", "18446744073709551615"},
		{"seed", "-1"},
		{"memory.hot_threshold", "true"},
		{"noc_detailed", "yes"},
		{"dram.trcd_ns", "1e400"},
		{"dram.trcd_ns", "NaN"},
		{"optical.freq_hz", "NaN"},
		{"optical.freq_hz", "-Inf"},
		{"", ""},
		{"....", "0"},
		{"OPTICAL.WAVEGUIDES", " 2 "},
		{"waveguides", "1"},
		{"optical.waveguides.extra", "1"},
	}
	for _, s := range seeds {
		f.Add(s.path, s.value)
	}
	f.Fuzz(func(t *testing.T, path, value string) {
		cfg := Default(OhmBW, Planar)
		if err := cfg.Set(path, value); err != nil {
			return
		}
		if _, err := json.Marshal(cfg); err != nil {
			t.Fatalf("config unmarshalable after Set(%q, %q): %v", path, value, err)
		}
	})
}
