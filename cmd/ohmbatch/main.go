// Command ohmbatch runs a declarative sweep over the evaluation grid on
// the parallel batch engine with the content-addressed result cache, and
// emits machine-readable results.
//
// Usage:
//
//	ohmbatch                                        # full 7x2x10 paper grid
//	ohmbatch -platforms ohm-base,ohm-bw -modes planar -workloads lud,sssp
//	ohmbatch -waveguides 1,2,4,8 -instr 5000 -format csv -o sweep.csv
//	ohmbatch -set xpoint.write_latency_ns=1200 -set optical.waveguides=1,2,4
//	ohmbatch -spec sweep.json                       # SweepSpec or scenario file
//	ohmbatch -spec scenario.json -validate          # dry-run expand, no simulation
//	ohmbatch -optimize search.json                  # optimizer job over override axes
//	ohmbatch -optimize search.json -validate        # validate + price, run nothing
//	ohmbatch -print-spec -waveguides 1,2 > sweep.json
//	ohmbatch -paths                                 # list overridable config paths
//
// -spec accepts either a SweepSpec grid or a config.Spec scenario document
// ({preset, mode, overrides, workload}) — the same files ohmsim -spec and
// the ohmserve daemon accept. -set adds override axes from the command
// line: a comma-separated value list sweeps that path.
//
// -optimize runs a search spec (see docs/reference/optimizer.md) instead
// of a grid: random search, successive halving or a (μ+λ) evolutionary
// strategy over declared axes, with the analytical twin as the inner loop
// and DES confirmation of the Pareto frontier. The result document is
// byte-identical to what POST /v1/optimize serves for the same (spec,
// seed).
//
// Results are cached under -cache (default .ohmbatch-cache) keyed by a
// hash of the fully-resolved configuration and workload, so re-running a
// spec — or a different spec overlapping it — only simulates new cells.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/prof"
	"repro/internal/search"
)

// multiFlag collects repeatable -set flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	specPath := flag.String("spec", "", "JSON spec file: a SweepSpec grid or a {preset,mode,overrides,workload} scenario (flags below override its axes)")
	optimizePath := flag.String("optimize", "", "JSON optimizer spec file: search over override axes instead of a grid (see docs/reference/optimizer.md)")
	platforms := flag.String("platforms", "", "comma-separated platforms (empty = all seven)")
	modes := flag.String("modes", "", "comma-separated mode tokens: planar|two-level, optionally +analytical for twin estimates, e.g. planar,planar+analytical (empty = both memory modes, simulated)")
	workloads := flag.String("workloads", "", "comma-separated Table II workloads (empty = all ten)")
	waveguides := flag.String("waveguides", "", "comma-separated optical waveguide counts to sweep (alias for -set optical.waveguides=...)")
	var sets multiFlag
	flag.Var(&sets, "set", "override axis path=value[,value...] (repeatable; see -paths)")
	instr := flag.Int("instr", 0, "instructions per warp (0 = config default)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", ".ohmbatch-cache", "result cache directory (empty disables caching)")
	cacheMax := flag.String("cache-max-bytes", "", "cache byte budget with LRU eviction, e.g. 2GB (empty = unbounded)")
	format := flag.String("format", "json", "output format: json|csv")
	out := flag.String("o", "", "output file (empty = stdout)")
	printSpec := flag.Bool("print-spec", false, "print the resolved spec as JSON and exit without running")
	validate := flag.Bool("validate", false, "validate and dry-run-expand the spec, print the cell summary, run nothing")
	paths := flag.Bool("paths", false, "list the overridable config paths with their types, then exit")
	quiet := flag.Bool("q", false, "suppress the run summary on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *paths {
		for _, p := range config.OverridePaths() {
			fmt.Printf("%-36s %s\n", p.Path, p.Type)
		}
		// Mode is a sweep axis, not an override path: surface it here so
		// the one discoverability surface lists everything settable.
		fmt.Printf("%-36s %s\n", "(axis) -modes / spec \"modes\"",
			`planar|two-level[+analytical] — "+analytical" swaps the event simulator for the closed-form twin`)
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiles = stopProf
	defer stopProf()

	if *optimizePath != "" {
		if *specPath != "" {
			fatalf("-optimize and -spec are mutually exclusive")
		}
		if *format != "json" {
			fatalf("optimizer results are JSON only (format %q not available)", *format)
		}
		runOptimize(*optimizePath, *validate, *workers, *cacheDir, *cacheMax, *out, *quiet)
		return
	}

	spec, err := buildSpec(*specPath, *platforms, *modes, *workloads, *waveguides, sets, *instr)
	if err != nil {
		fatalf("%v", err)
	}
	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fatalf("%v", err)
		}
		return
	}

	cells, err := spec.Cells()
	if err != nil {
		fatalf("%v", err)
	}
	if *validate {
		if err := dryRun(cells); err != nil {
			fatalf("%v", err)
		}
		return
	}

	cache, err := openCache(*cacheDir, *cacheMax)
	if err != nil {
		fatalf("%v", err)
	}
	runner := batch.NewRunner(*workers, cache)

	start := time.Now()
	reports, err := runner.Run(cells)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = batch.WriteJSON(w, cells, reports)
	case "csv":
		err = batch.WriteCSV(w, cells, reports)
	default:
		err = fmt.Errorf("unknown format %q (json|csv)", *format)
	}
	if err != nil {
		fatalf("%v", err)
	}

	if !*quiet {
		st := runner.Stats()
		fmt.Fprintf(os.Stderr, "ohmbatch: %d cells in %s (%d cached, %d simulated)\n",
			len(cells), elapsed.Round(time.Millisecond), st.Hits, st.Misses)
		if st.PutErrors > 0 {
			fmt.Fprintf(os.Stderr, "ohmbatch: warning: %d results could not be written to the cache\n",
				st.PutErrors)
		}
	}
}

// openCache builds the disk result cache from the -cache / -cache-max-bytes
// flags; an empty dir disables caching.
func openCache(dir, maxBytes string) (batch.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	var budget int64
	if maxBytes != "" {
		b, err := config.ParseBytes(maxBytes)
		if err != nil {
			return nil, fmt.Errorf("-cache-max-bytes: %w", err)
		}
		budget = b
	}
	return batch.NewBoundedDiskCache(dir, budget)
}

// runOptimize is -optimize: load and validate the search spec, then either
// print the dry-run pricing (-validate) or run the optimizer on the local
// executor and emit the canonical result JSON.
func runOptimize(path string, validate bool, workers int, cacheDir, cacheMax, out string, quiet bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var spec search.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fatalf("%s: %v", path, err)
	}
	if err := spec.Validate(); err != nil {
		fatalf("%s: %v", path, err)
	}
	if validate {
		fmt.Printf("optimizer spec OK: %d axes, %d objectives, algorithm %s\n",
			len(spec.Axes), len(spec.Objectives), spec.Search.WithDefaults().Algorithm)
		fmt.Printf("planned: %d analytical-twin evaluations; Pareto-frontier points are additionally DES-confirmed\n",
			spec.PlannedEvaluations())
		return
	}

	cache, err := openCache(cacheDir, cacheMax)
	if err != nil {
		fatalf("%v", err)
	}
	runner := batch.NewRunner(workers, cache)
	opts := search.Options{Executor: batch.LocalExecutor{Runner: runner}}
	if !quiet {
		opts.OnPhase = func(p search.Progress) {
			switch p.Phase {
			case "search":
				fmt.Fprintf(os.Stderr, "ohmbatch: optimize: generation %d/%d (%d/%d evaluations)\n",
					p.Generation, p.Generations, p.Evaluated, p.Planned)
			case "confirm":
				fmt.Fprintf(os.Stderr, "ohmbatch: optimize: confirming %d frontier points under DES\n",
					p.FrontierSize)
			}
		}
	}
	start := time.Now()
	res, err := search.Run(context.Background(), spec, opts)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)

	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := search.WriteJSON(w, res); err != nil {
		fatalf("%v", err)
	}
	if !quiet {
		st := runner.Stats()
		fmt.Fprintf(os.Stderr, "ohmbatch: optimize: %d evaluations, %d frontier points (%d DES-confirmed) in %s (%d cached, %d simulated)\n",
			res.Evaluated, len(res.Frontier), res.Confirmed, elapsed.Round(time.Millisecond), st.Hits, st.Misses)
	}
}

// dryRun is -validate: every cell's config must validate and hash; the
// summary names the expanded axes so CI logs show what a spec covers, and
// the cost line estimates the sweep's compute before anything runs.
func dryRun(cells []batch.Cell) error {
	seen := make(map[string]struct{}, len(cells))
	custom := 0
	for _, c := range cells {
		if err := c.Config.Validate(); err != nil {
			return fmt.Errorf("cell %d (%s): %w", c.Index, c, err)
		}
		key, err := c.Key()
		if err != nil {
			return fmt.Errorf("cell %d (%s): %w", c.Index, c, err)
		}
		seen[key] = struct{}{}
		if c.WorkloadDef != nil {
			custom++
		}
	}
	fmt.Printf("spec OK: %d cells (%d distinct keys", len(cells), len(seen))
	if custom > 0 {
		fmt.Printf(", %d custom-workload cells", custom)
	}
	fmt.Println(")")
	cost := batch.EstimateCost(cells)
	fmt.Printf("estimated cost: ~%s cold (%d des", cost.Estimated.Round(time.Millisecond), cost.DESCells)
	if cost.AnalyticalCells > 0 {
		fmt.Printf(" + %d analytical", cost.AnalyticalCells)
	}
	fmt.Println(" cells; cache hits are free)")
	for i, c := range cells {
		if i == 8 {
			fmt.Printf("  ... %d more\n", len(cells)-i)
			break
		}
		fmt.Printf("  %s\n", c)
	}
	return nil
}

// buildSpec loads the spec file (if any) and applies flag overrides.
func buildSpec(path, platforms, modes, workloads, waveguides string, sets []string, instr int) (batch.SweepSpec, error) {
	var spec batch.SweepSpec
	if path != "" {
		s, err := batch.LoadSpec(path)
		if err != nil {
			return spec, err
		}
		spec = s
	}
	if platforms != "" {
		spec.Platforms = spec.Platforms[:0]
		for _, name := range strings.Split(platforms, ",") {
			p, err := config.ParsePlatform(strings.TrimSpace(name))
			if err != nil {
				return spec, err
			}
			spec.Platforms = append(spec.Platforms, p)
		}
	}
	if modes != "" {
		spec.Modes = spec.Modes[:0]
		spec.Execs = spec.Execs[:0]
		for _, name := range strings.Split(modes, ",") {
			m, e, err := config.ParseModes(strings.TrimSpace(name))
			if err != nil {
				return spec, err
			}
			spec.Modes = append(spec.Modes, m)
			spec.Execs = append(spec.Execs, e)
		}
	}
	if workloads != "" {
		spec.Workloads = spec.Workloads[:0]
		for _, w := range strings.Split(workloads, ",") {
			spec.Workloads = append(spec.Workloads, strings.TrimSpace(w))
		}
	}
	if spec.Overrides == nil {
		spec.Overrides = batch.Overrides{}
	}
	if waveguides != "" {
		var axis batch.Axis
		for _, s := range strings.Split(waveguides, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return spec, fmt.Errorf("bad waveguide count %q", s)
			}
			axis = append(axis, n)
		}
		spec.Overrides["optical.waveguides"] = axis
	}
	for _, kv := range sets {
		path, vals, ok := strings.Cut(kv, "=")
		if !ok || strings.TrimSpace(path) == "" || vals == "" {
			return spec, fmt.Errorf("bad -set %q, want path=value[,value...]", kv)
		}
		var axis batch.Axis
		for _, v := range strings.Split(vals, ",") {
			axis = append(axis, strings.TrimSpace(v))
		}
		spec.Overrides[strings.TrimSpace(path)] = axis
	}
	if instr > 0 {
		spec.MaxInstructions = instr
	}
	return spec, nil
}

// stopProfiles flushes any active pprof profiles; fatalf must run it
// because os.Exit skips deferred functions — a profile of a failing run
// is exactly the profile the user wants intact.
var stopProfiles func()

func fatalf(format string, args ...interface{}) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintf(os.Stderr, "ohmbatch: "+format+"\n", args...)
	os.Exit(1)
}
