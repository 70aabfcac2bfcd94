package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runOnce runs the benchmark in-process at the self-test's tiny budget for
// the given seconds and returns its parsed result line.
func runOnce(t *testing.T, workload string, seconds float64, traced, inject bool) resultLine {
	t.Helper()
	o := options{
		workload: workload, seed: 7, seconds: seconds, trace: traced,
		setups: 1, root: "..", tmp: t.TempDir(), small: true, inject: inject,
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return line
}

// TestSelf runs every workload once untraced and once traced with every
// check on: each must pass, and report exactly the metrics BENCHMARK.json
// declares, with the declared units. It then injects a wrong expected
// output into each workload, which must be counted as a failure. Last it
// pins the split the DES workloads were chosen for: the memory
// controller's share of the event loop is larger on des-mem than on
// des-compute.
func TestSelf(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	share := map[string]float64{}
	for _, w := range b.Workloads {
		w := w.Name
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w)
			continue
		}
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				line := runOnce(t, w, 0.5, traced, false)
				if traced {
					share[w] = line.Metrics["hmem.share"].Value
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", traced, name)
					case got.Unit != unit:
						t.Errorf("trace=%v: metric %s in %s, BENCHMARK.json says %s", traced, name, got.Unit, unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			}
			if line := runOnce(t, w, 0.5, false, true); line.Correct || line.Failed == 0 {
				t.Errorf("an injected wrong expected output was not reported: correct=%v failed=%d", line.Correct, line.Failed)
			}
		})
	}
	if share["des-mem"] <= share["des-compute"] {
		t.Errorf("hmem.share: des-mem %.3f <= des-compute %.3f", share["des-mem"], share["des-compute"])
	}
}

// modelCountMetrics are the per-layer metrics taken from the verification job's
// simulated quantities; README.md promises they depend on the seed alone.
var modelCountMetrics = []string{
	"hmem.accesses", "gpu.l1_hit_rate", "gpu.l2_hit_rate", "gpu.mshr_merges",
	"hmem.migrations", "hmem.copy_fraction", "hmem.sim_mean_latency_ns",
	"hmem.sim_p99_latency_ns", "optical.bytes_regular", "optical.bytes_copy",
	"elec.bytes_regular", "elec.bytes_copy", "dram.reads", "dram.writes",
	"xpoint.reads", "xpoint.writes", "energy.total_pj",
}

// TestModelCountsIndependentOfRunLength runs each DES workload traced for
// two different lengths, so a different number of jobs finishes before
// the verification job: the model counts must come out identical.
func TestModelCountsIndependentOfRunLength(t *testing.T) {
	for _, w := range []string{"des-mem", "des-compute"} {
		short := runOnce(t, w, 0.2, true, false)
		long := runOnce(t, w, 1, true, false)
		for _, name := range modelCountMetrics {
			a, b := short.Metrics[name].Value, long.Metrics[name].Value
			if a != b {
				t.Errorf("%s: %s = %v after a short run, %v after a long one", w, name, a, b)
			}
		}
		if short.Metrics["energy.total_pj"].Value <= 0 {
			t.Errorf("%s: no verification job ran", w)
		}
	}
}
