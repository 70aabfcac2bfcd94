// Command benchcheck compares a freshly generated scripts/bench.sh
// snapshot against the committed baseline and fails (exit 1) when a
// guarded hot path regresses:
//
//   - a guarded benchmark is missing from either file,
//   - a guarded kernel benchmark (-benches) reports allocs_per_op > 0
//     (the allocation-free kernel guarantees of PR 2),
//   - a guarded kernel benchmark's ns/op exceeds -max-ratio times the
//     baseline (default 2x: tolerates CI-runner noise on nanosecond-scale
//     benchmarks while catching algorithmic regressions),
//   - a guarded sweep benchmark (-sweep-benches) exceeds -sweep-max-ratio
//     times the baseline ns/op (default 1.3x: grid-scale runs are long
//     enough to be stable, so the gate is tighter), or
//   - a guarded sweep benchmark's allocs/cell regresses at all versus the
//     baseline (the run-state pool makes this metric deterministic, so
//     any growth is a real leak of per-cell allocations).
//
// It also prints, ungated, the twin-vs-DES cost ratio of each snapshot
// that records both cells: BenchmarkKernelWarmCell's ns/op over
// BenchmarkTwinCell's, how many analytical cells cost one warm DES cell.
//
// When the baseline and current snapshots were produced by different Go
// major.minor versions, ratio checks still run but a warning is printed:
// toolchain changes legitimately move both ns/op and allocation counts,
// so a failure right after a toolchain bump may just need a re-baseline.
//
// Usage:
//
//	go run ./scripts/benchcheck -baseline BENCH_27.json -current /tmp/BENCH_CI.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// snapshot is the part of scripts/bench.sh's JSON the gates read. The host
// stamp (cpu, nproc, gomaxprocs, commit) is for readers, and older
// snapshots such as BENCH_9.json predate it.
type snapshot struct {
	Date       string  `json:"date"`
	Go         string  `json:"go"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name          string   `json:"name"`
	Iters         int64    `json:"iters"`
	NsPerOp       float64  `json:"ns_per_op"`
	BPerOp        *float64 `json:"b_per_op"`
	AllocsPerOp   *float64 `json:"allocs_per_op"`
	AllocsPerCell *float64 `json:"allocs_per_cell"`
	CellsPerSec   *float64 `json:"cells_per_sec"`
}

func load(path string) (map[string]entry, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, "", fmt.Errorf("%s: no benchmarks recorded", path)
	}
	m := make(map[string]entry, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		m[b.Name] = b
	}
	return m, s.Go, nil
}

// majorMinor reduces a `go version` token like "go1.22.4" to "go1.22".
func majorMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// allocsSlack absorbs the 4-significant-figure rounding bench.sh's parser
// inherits from the testing package's metric printer; any larger growth in
// allocs/cell fails the sweep gate.
const allocsSlack = 1.001

func main() {
	baseline := flag.String("baseline", "BENCH_27.json", "committed baseline snapshot")
	current := flag.String("current", "", "freshly generated snapshot to check")
	benches := flag.String("benches",
		"BenchmarkKernelScheduleID,BenchmarkAccess,BenchmarkAddEnergyHandle,BenchmarkGapResourceBackfillClocked",
		"comma-separated guarded kernel benchmark names (0 allocs/op + ns/op ratio)")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when kernel ns/op exceeds baseline by this factor")
	sweepBenches := flag.String("sweep-benches", "BenchmarkSweepCold",
		"comma-separated guarded sweep benchmark names (ns/op ratio + allocs/cell)")
	sweepMaxRatio := flag.Float64("sweep-max-ratio", 1.3, "fail when sweep ns/op exceeds baseline by this factor")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -current is required")
		os.Exit(2)
	}

	base, baseGo, err := load(*baseline)
	if err != nil {
		fatal("load baseline: %v", err)
	}
	cur, curGo, err := load(*current)
	if err != nil {
		fatal("load current: %v", err)
	}
	if bmm, cmm := majorMinor(baseGo), majorMinor(curGo); bmm != cmm {
		fmt.Fprintf(os.Stderr,
			"benchcheck: WARNING: baseline recorded with %s, current run uses %s — "+
				"ratio failures below may reflect the toolchain change; re-baseline with scripts/bench.sh if so\n",
			baseGo, curGo)
	}

	printTwinRatio("baseline", *baseline, base)
	if *current != *baseline {
		printTwinRatio("current", *current, cur)
	}

	failed := false
	lookup := func(name string) (entry, entry, bool) {
		b, okB := base[name]
		c, okC := cur[name]
		if !okB {
			fail(&failed, "%s: missing from baseline %s", name, *baseline)
		}
		if !okC {
			fail(&failed, "%s: missing from current %s (did the benchmark get renamed or dropped?)", name, *current)
		}
		return b, c, okB && okC
	}

	for _, name := range strings.Split(*benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			// -benches '' validates only that both snapshots decode and are
			// non-empty (bench.sh's post-generation sanity check).
			continue
		}
		b, c, ok2 := lookup(name)
		if !ok2 {
			continue
		}
		ok := true
		if c.AllocsPerOp == nil {
			ok = false
			fail(&failed, "%s: current run has no allocs_per_op (run with -benchmem)", name)
		} else if *c.AllocsPerOp > 0 {
			ok = false
			fail(&failed, "%s: %g allocs/op, guarded paths must stay allocation-free", name, *c.AllocsPerOp)
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(*maxRatio) {
			ok = false
			fail(&failed, "%s: %.4g ns/op vs baseline %.4g ns/op (> %.1fx)",
				name, c.NsPerOp, b.NsPerOp, *maxRatio)
		}
		if ok {
			fmt.Printf("benchcheck: %-28s %.4g ns/op (baseline %.4g, ratio %.2f) ok\n",
				name, c.NsPerOp, b.NsPerOp, c.NsPerOp/b.NsPerOp)
		}
	}

	for _, name := range strings.Split(*sweepBenches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, c, ok2 := lookup(name)
		if !ok2 {
			continue
		}
		ok := true
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(*sweepMaxRatio) {
			ok = false
			fail(&failed, "%s: %.4g ns/op vs baseline %.4g ns/op (> %.2fx)",
				name, c.NsPerOp, b.NsPerOp, *sweepMaxRatio)
		}
		switch {
		case b.AllocsPerCell == nil:
			ok = false
			fail(&failed, "%s: baseline %s has no allocs_per_cell (re-record with scripts/bench.sh)", name, *baseline)
		case c.AllocsPerCell == nil:
			ok = false
			fail(&failed, "%s: current run has no allocs_per_cell", name)
		case *c.AllocsPerCell > *b.AllocsPerCell*allocsSlack:
			ok = false
			fail(&failed, "%s: %.4g allocs/cell vs baseline %.4g — per-cell allocations must not regress",
				name, *c.AllocsPerCell, *b.AllocsPerCell)
		}
		if ok {
			fmt.Printf("benchcheck: %-28s %.4g ns/op (baseline %.4g, ratio %.2f), %.4g allocs/cell ok\n",
				name, c.NsPerOp, b.NsPerOp, c.NsPerOp/b.NsPerOp, *c.AllocsPerCell)
		}
	}

	if failed {
		os.Exit(1)
	}
}

// printTwinRatio prints the snapshot's twin-vs-DES cost ratio, if it
// records both cells.
func printTwinRatio(label, path string, m map[string]entry) {
	des, okD := m["BenchmarkKernelWarmCell"]
	twin, okT := m["BenchmarkTwinCell"]
	if !okD || !okT || twin.NsPerOp <= 0 {
		return
	}
	fmt.Printf("benchcheck: twin-vs-DES cost ratio (%s %s): %.4g ms / %.4g us = %.0fx\n",
		label, path, des.NsPerOp/1e6, twin.NsPerOp/1e3, des.NsPerOp/twin.NsPerOp)
}

func fail(failed *bool, format string, args ...interface{}) {
	*failed = true
	fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(2)
}
