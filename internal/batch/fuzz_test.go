package batch

import (
	"testing"
)

// FuzzParseSpec hammers the sweep/scenario sniffing parser and the cell
// expansion behind every untrusted entry point (spec files, ohmserve
// submissions): malformed documents must come back as errors, never
// panics, and a document that parses must expand without panicking within
// the MaxCells bound.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"platforms":["origin","ohm-bw"],"modes":["planar"],"workloads":["lud"]}`,
		`{"preset":"ohm-base","mode":"two-level","workload":"pagerank"}`,
		`{"preset":"ohm-bw","overrides":{"optical.waveguides":4,"xpoint.write_latency_ns":900.5}}`,
		`{"overrides":{"optical.waveguides":[1,2,4]}}`,
		`{"platforms":["origin"],"overrides":{"gpu.sms":[8,16],"max_instructions":2000}}`,
		`{"waveguides":[1,2,4],"max_instructions":4000}`,
		`{"custom_workloads":[{"name":"x","apki":10,"read_ratio":0.5,"footprint_scale":1,"hot_skew":0.5}]}`,
		`{"workload":{"name":"w","apki":1e300,"read_ratio":-5,"footprint_scale":1e308,"hot_skew":2}}`,
		`{"platforms":["nope"]}`,
		`{"modes":["sideways"]}`,
		`{"overrides":{"":null}}`,
		`{"overrides":{"optical.waveguides":[]}}`,
		`[1,2,3]`,
		`"just a string"`,
		"{",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		cells, err := spec.Cells()
		if err != nil {
			return
		}
		if len(cells) > MaxCells {
			t.Fatalf("expansion escaped the MaxCells bound: %d cells", len(cells))
		}
		// Every expanded cell must be keyable (the cache depends on it).
		for i := range cells {
			if _, err := cells[i].Key(); err != nil {
				t.Fatalf("cell %d unkeyable: %v", i, err)
			}
		}
	})
}
