// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and the service from outside, through their public functions
// and seams, on three workloads:
//
//	des-mem      cold DES sweeps of the read-heavy graph workloads over the
//	             migrating platforms: the memory side (hmem, channel,
//	             devices) does about half the event loop
//	des-compute  cold DES sweeps of the dense, write-mixed kernels on
//	             oracle: GPU issue, the caches and trace generation dominate
//	service      an in-process ohmserve under a closed loop of one client
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload des-mem --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same work with per-layer timing and reports
// the per-layer metrics. The line before it stamps the host and build.
// End-to-end job times are on a reference clock (refclock.go) that takes
// the host's drifting speed out of them. README.md in this directory
// defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// setups is how many times set-up repeats; setup_s is their median.
	setups int
	// root is the repository root (the golden corpus lives under it);
	// tmp is where the service keeps its cache and journal.
	root, tmp string
	// small shrinks the per-warp instruction budgets for the self-test.
	small bool
	// inject corrupts one expected output, so the self-test can check that
	// a mismatch is counted as a failure.
	inject bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"des-mem":     func(o options) (*result, error) { return runDES(o, desMem) },
	"des-compute": func(o options) (*result, error) { return runDES(o, desCompute) },
	"service":     runService,
}

func main() {
	o := options{setups: 5, root: "."}
	o.tmp = filepath.Join(o.root, ".bench_build")
	flag.StringVar(&o.workload, "workload", "", "workload: des-mem, des-compute or service")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the stamp line and the result line.
func run(o options, w io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.trace {
		o.setups = 1 // set-up time is an end-to-end metric only
	}
	res, err := fn(o)
	if err != nil {
		return err
	}
	line, err := res.line(o.trace)
	if err != nil {
		return err
	}
	for _, msg := range res.tally.first {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]stamp{"stamp": newStamp(o)}); err != nil {
		return err
	}
	return enc.Encode(line)
}
