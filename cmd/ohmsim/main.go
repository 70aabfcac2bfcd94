// Command ohmsim runs one Ohm-GPU scenario — a platform preset on one
// workload, optionally patched by dotted-path overrides — and prints the
// full measurement report: IPC, memory latency, channel bandwidth split,
// migrations, cache behaviour and the energy breakdown.
//
// Usage:
//
//	ohmsim -platform ohm-bw -mode planar -workload pagerank
//	ohmsim -platform oracle -mode two-level -workload lud -instr 40000
//	ohmsim -set xpoint.write_latency_ns=1200 -set gpu.mshr_entries=16
//	ohmsim -spec scenario.json                 # {preset, mode, overrides, workload}
//	ohmsim -spec scenario.json -set seed=7     # flags layer over the file
//	ohmsim -json -platform ohm-wom -workload sssp
//	ohmsim -list
//
// The -spec file is a config.Spec scenario document; its workload may be a
// Table II name or an inline custom definition, so a new platform variant
// or workload is a JSON file, not a Go change. The same file runs under
// `ohmbatch -spec` and `POST /v1/sweeps {"scenario": ...}` with identical
// results and cache keys.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/twin"
)

// multiFlag collects repeatable -set flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	specPath := flag.String("spec", "", "scenario spec JSON file ({preset, mode, overrides, workload})")
	platform := flag.String("platform", config.DefaultPreset, "platform preset: "+strings.Join(config.PresetNames(), "|"))
	mode := flag.String("mode", "planar", "mode: planar|two-level, +analytical for the closed-form twin (e.g. planar+analytical)")
	workload := flag.String("workload", config.DefaultWorkload, "Table II workload name")
	instr := flag.Int("instr", 0, "instructions per warp (0 = default 20000)")
	waveguides := flag.Int("waveguides", 0, "optical waveguides (0 = default 1)")
	var sets multiFlag
	flag.Var(&sets, "set", "override one config field: -set path=value (repeatable; see docs/reference/spec.md)")
	asJSON := flag.Bool("json", false, "emit the full report as JSON instead of the text block")
	list := flag.Bool("list", false, "list platforms, modes and workloads, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiles = stopProf
	defer stopProf()

	if *list {
		fmt.Printf("platforms: %s\n", strings.Join(config.PresetNames(), " "))
		fmt.Println("modes:     planar two-level planar+analytical two-level+analytical")
		fmt.Printf("workloads: %s\n", strings.Join(config.WorkloadNames(), " "))
		return
	}

	spec, err := buildSpec(*specPath, *platform, *mode, *workload, *instr, *waveguides, sets)
	if err != nil {
		fatalf("%v", err)
	}
	sc, err := spec.Resolve()
	if err != nil {
		fatalf("%v (try -list)", err)
	}

	var (
		rep        stats.Report
		devices    *deviceCounters
		components []string
	)
	if sc.Exec == config.ExecAnalytical {
		// The closed-form twin: no event loop, no device objects — the
		// report's per-metric expected error lives in Extra["twin:mape:*"].
		rep = twin.Estimate(&sc.Config, sc.Workload)
		components = make([]string, 0, len(rep.EnergyPJ))
		for k := range rep.EnergyPJ {
			components = append(components, k)
		}
		sort.Strings(components)
	} else {
		sys, err := core.NewSystemIn(nil, sc.Config)
		if err != nil {
			fatalf("%v", err)
		}
		rep = sys.RunTrace(trace.Generate(sc.Workload, &sys.Cfg))
		components = sys.Col.EnergyComponents()
		devices = &deviceCounters{
			MCReads:        sys.Col.Reads,
			MCWrites:       sys.Col.Writes,
			DRAMReads:      sys.Mem.DRAMReads,
			DRAMWrites:     sys.Mem.DRAMWrites,
			XPointReads:    sys.Mem.XPointReads,
			XPointWrites:   sys.Mem.XPointWrites,
			MigratedBytes:  sys.Col.MigratedBytes,
			DualRouteBytes: sys.Col.DualRouteBytes,
		}
	}

	if *asJSON {
		doc := jsonReport{
			Platform: sc.Config.Platform.String(),
			Mode:     config.ModeString(sc.Config.Mode, sc.Exec),
			Workload: sc.Workload.Name,
			Report:   rep,
			Devices:  devices,
		}
		if sc.Custom {
			w := sc.Workload
			doc.WorkloadDef = &w
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fmt.Printf("platform       %s\n", sc.Config.Platform)
	fmt.Printf("mode           %s\n", config.ModeString(sc.Config.Mode, sc.Exec))
	fmt.Printf("workload       %s\n", sc.Workload.Name)
	fmt.Printf("elapsed        %s\n", rep.Elapsed)
	fmt.Printf("IPC            %.3f\n", rep.IPC)
	fmt.Printf("mem latency    %s (p99 %s)\n", rep.MeanLatency, rep.P99Latency)
	if devices != nil {
		fmt.Printf("mem requests   %d (%d reads / %d writes at MC)\n",
			rep.MemRequests, devices.MCReads, devices.MCWrites)
		fmt.Printf("migrations     %d (%.1f MiB moved, %.1f MiB via dual routes)\n",
			rep.Migrations, float64(devices.MigratedBytes)/(1<<20), float64(devices.DualRouteBytes)/(1<<20))
	} else {
		fmt.Printf("mem requests   %d\n", rep.MemRequests)
		fmt.Printf("migrations     %d\n", rep.Migrations)
	}
	fmt.Printf("channel        regular %.1f MiB, copy %.1f MiB (copy busy fraction %.1f%%)\n",
		float64(rep.RegularBytes)/(1<<20), float64(rep.CopyBytes)/(1<<20), 100*rep.CopyFraction)
	fmt.Printf("caches         L1 %.1f%%, L2 %.1f%% hit\n",
		100*rep.Extra["l1-hit-rate"], 100*rep.Extra["l2-hit-rate"])
	if devices != nil {
		fmt.Printf("devices        DRAM %d r / %d w; XPoint %d r / %d w\n",
			devices.DRAMReads, devices.DRAMWrites, devices.XPointReads, devices.XPointWrites)
	}
	fmt.Println("energy (pJ):")
	total := rep.TotalEnergyPJ()
	for _, k := range components {
		v := rep.EnergyPJ[k]
		fmt.Printf("  %-14s %14.0f (%.1f%%)\n", k, v, 100*v/total)
	}
	fmt.Printf("  %-14s %14.0f\n", "total", total)
	if sc.Exec == config.ExecAnalytical {
		fmt.Printf("expected error ipc ±%.0f%%, latency ±%.0f%%, energy ±%.0f%% (calibrated vs the event simulator; see docs/reference/analytical.md)\n",
			100*rep.Extra["twin:mape:ipc"], 100*rep.Extra["twin:mape:mean-latency"], 100*rep.Extra["twin:mape:energy"])
	}
}

// buildSpec assembles the scenario: the -spec file first, then explicit
// flags layered on top (an unset flag never clobbers the file).
func buildSpec(path, platform, mode, workload string, instr, waveguides int, sets []string) (config.Spec, error) {
	var spec config.Spec
	if path != "" {
		s, err := config.LoadSpec(path)
		if err != nil {
			return spec, err
		}
		spec = s
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["platform"] || spec.Preset == "" {
		spec.Preset = platform
	}
	if explicit["mode"] || spec.Mode == "" {
		spec.Mode = mode
	}
	if explicit["workload"] || spec.Workload == nil {
		spec.Workload = &config.WorkloadSpec{Name: workload}
	}
	override := func(p string, v interface{}) {
		if spec.Overrides == nil {
			spec.Overrides = map[string]interface{}{}
		}
		spec.Overrides[p] = v
	}
	if instr > 0 {
		override("max_instructions", instr)
	}
	if waveguides > 0 {
		override("optical.waveguides", waveguides)
	}
	for _, kv := range sets {
		p, v, ok := strings.Cut(kv, "=")
		if !ok || strings.TrimSpace(p) == "" {
			return spec, fmt.Errorf("bad -set %q, want path=value", kv)
		}
		override(strings.TrimSpace(p), strings.TrimSpace(v))
	}
	return spec, nil
}

// jsonReport is the machine-readable form of one run: the cell identity,
// the full stats.Report, and the device-level counters the text block
// prints from simulator internals.
type jsonReport struct {
	Platform    string           `json:"platform"`
	Mode        string           `json:"mode"`
	Workload    string           `json:"workload"`
	WorkloadDef *config.Workload `json:"workload_def,omitempty"`
	Report      stats.Report     `json:"report"`
	// Devices is absent for analytical runs: the twin has no device
	// objects to count events on.
	Devices *deviceCounters `json:"devices,omitempty"`
}

type deviceCounters struct {
	MCReads        uint64 `json:"mc_reads"`
	MCWrites       uint64 `json:"mc_writes"`
	DRAMReads      uint64 `json:"dram_reads"`
	DRAMWrites     uint64 `json:"dram_writes"`
	XPointReads    uint64 `json:"xpoint_reads"`
	XPointWrites   uint64 `json:"xpoint_writes"`
	MigratedBytes  uint64 `json:"migrated_bytes"`
	DualRouteBytes uint64 `json:"dual_route_bytes"`
}

// stopProfiles flushes any active pprof profiles; fatalf must run it
// because os.Exit skips deferred functions — a profile of a failing run
// is exactly the profile the user wants intact.
var stopProfiles func()

func fatalf(format string, args ...interface{}) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintf(os.Stderr, "ohmsim: "+format+"\n", args...)
	os.Exit(1)
}
