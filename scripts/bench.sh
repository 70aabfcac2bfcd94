#!/usr/bin/env bash
# scripts/bench.sh — run the perf-trajectory benchmark suite and emit a
# machine-readable BENCH_<n>.json snapshot.
#
# Usage:
#   scripts/bench.sh                # writes a temp file and prints its path
#   scripts/bench.sh BENCH_10.json  # records a new committed snapshot
#
# With no argument the snapshot goes to a fresh temp file, so a local run
# never overwrites a committed baseline.
#
# The snapshot is stamped with the host that produced it (CPU model, online
# CPUs, GOMAXPROCS), the Go version and the commit it measured ("+dirty"
# when tracked files differ from it).
#
# The suite covers six layers:
#   - kernel:   BenchmarkKernelScheduleID (the slot scheduler's steady-state
#               fire->reschedule loop over 128 warps, allocs/op)
#   - cell:     BenchmarkKernelColdCell / BenchmarkKernelWarmCell and
#               BenchmarkSingleRun/* (one end-to-end simulation)
#   - sweep:    BenchmarkSweepCold / BenchmarkSweepWarm (a real grid through
#               batch.Runner; cells/sec and allocs/cell gate the run-state
#               pool against per-cell allocation regressions), and
#               BenchmarkSweepColdTraces/gomaxprocs={1,2} (perfbench
#               des-compute's grid on fresh traces, so trace generation is
#               timed too; recorded, not gated)
#   - figures:  BenchmarkFig3 (the motivation study; warm iterations hit the
#               in-process result cache, so run it cold-aware via benchtime)
#   - twin:     BenchmarkTwinCell (one closed-form analytical cell;
#               benchcheck prints BenchmarkKernelWarmCell over it, the
#               twin-vs-DES cost ratio, when the snapshot is recorded)
#   - service:  BenchmarkDiskCachePut (one result-cache write, alone and
#               beside a file fsynced every 20 ms as the job journal is;
#               recorded, not gated)
#
# Each PR that changes a hot path re-runs this script and commits the new
# BENCH_<n>.json, so the perf trajectory is recorded next to the code.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-$(mktemp "${TMPDIR:-/tmp}/BENCH.XXXXXX")}"
TMP="$(mktemp)"
trap 'rm -f "$TMP" "$OUT.tmp"' EXIT

echo "bench: kernel steady state" >&2
go test -run='^$' -bench='BenchmarkKernelSchedule' -benchmem -benchtime=300000x . | tee -a "$TMP" >&2
echo "bench: single cells" >&2
go test -run='^$' -bench='BenchmarkKernel.*Cell|BenchmarkSingleRun' -benchmem -benchtime=5x . | tee -a "$TMP" >&2
echo "bench: sweep grid (cold simulate + warm result cache)" >&2
go test -run='^$' -bench='BenchmarkSweepCold$|BenchmarkSweepWarm$' -benchmem -benchtime=5x . | tee -a "$TMP" >&2
echo "bench: cold sweep with fresh traces (GOMAXPROCS 1 and 2)" >&2
go test -run='^$' -bench='BenchmarkSweepColdTraces$' -benchmem -benchtime=20x . | tee -a "$TMP" >&2
echo "bench: figure driver (cold first iteration + warm cache)" >&2
go test -run='^$' -bench='BenchmarkFig3$' -benchmem -benchtime=3x . | tee -a "$TMP" >&2
echo "bench: analytical twin (one closed-form cell)" >&2
go test -run='^$' -bench='BenchmarkTwinCell$' -benchmem -benchtime=10000x ./internal/twin | tee -a "$TMP" >&2
echo "bench: micro (sim/cache/stats/dram/optical/hmem)" >&2
# 10^6 iterations keep the gated ns-scale benches running for milliseconds,
# long enough that one preemption cannot double their ns/op.
go test -run='^$' -bench='.' -benchmem -benchtime=1000000x \
  ./internal/sim ./internal/cache ./internal/stats ./internal/dram ./internal/optical \
  ./internal/hmem | tee -a "$TMP" >&2
echo "bench: trace generation and registry" >&2
# At 20x, five recordings on a 2-vCPU Xeon read BenchmarkGenerate anywhere
# from 1.68 to 1.96 ms; at 200x, 1.33-1.57 ms.
go test -run='^$' -bench='.' -benchmem -benchtime=200x ./internal/trace | tee -a "$TMP" >&2
echo "bench: result-cache writes (service layer)" >&2
go test -run='^$' -bench='.' -benchmem -benchtime=200x ./internal/batch | tee -a "$TMP" >&2

# Parse the accumulated `go test -bench` output into JSON. Any Benchmark
# line the parser cannot extract ns/op (or iterations) from aborts the
# whole script with a non-zero exit — a partial or empty snapshot must
# never be written, because benchcheck and the committed perf trajectory
# both treat these files as complete.
cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\' || true)"
ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | awk '{print $3}')" \
  -v cpu="${cpu:-unknown}" -v ncpu="$ncpu" -v procs="${GOMAXPROCS:-$ncpu}" -v commit="$commit" '
BEGIN { n = 0; bad = 0 }
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  iters = $2; ns = ""; bytes = ""; allocs = ""; apc = ""; cps = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
    if ($(i+1) == "allocs/cell") apc = $i
    if ($(i+1) == "cells/sec") cps = $i
  }
  if (ns == "" || iters !~ /^[0-9]+$/) {
    printf "bench.sh: cannot parse benchmark line: %s\n", $0 > "/dev/stderr"
    bad = 1; exit 1
  }
  names[n] = name; its[n] = iters; nss[n] = ns; bs[n] = bytes; as[n] = allocs
  apcs[n] = apc; cpss[n] = cps; n++
}
END {
  if (bad) exit 1
  if (n == 0) {
    print "bench.sh: no benchmark lines found in the test output" > "/dev/stderr"
    exit 1
  }
  printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n", date, gover
  printf "  \"cpu\": \"%s\",\n  \"nproc\": %s,\n  \"gomaxprocs\": %s,\n  \"commit\": \"%s\",\n", cpu, ncpu, procs, commit
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++) {
    printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", names[i], its[i], nss[i]
    if (bs[i] != "") printf ", \"b_per_op\": %s", bs[i]
    if (as[i] != "") printf ", \"allocs_per_op\": %s", as[i]
    if (apcs[i] != "") printf ", \"allocs_per_cell\": %s", apcs[i]
    if (cpss[i] != "") printf ", \"cells_per_sec\": %s", cpss[i]
    printf "}%s\n", (i < n-1 ? "," : "")
  }
  printf "  ]\n}\n"
}' "$TMP" > "$OUT.tmp"

# The snapshot must decode (-benches '' -sweep-benches '' makes benchcheck
# a pure decode check, so recording a baseline with intentionally changed
# benchmarks still works), and only lands under its real name once complete.
# The check prints the snapshot's twin-vs-DES cost ratio.
go run ./scripts/benchcheck -baseline "$OUT.tmp" -current "$OUT.tmp" -benches '' -sweep-benches '' >&2
mv "$OUT.tmp" "$OUT"

echo "bench: wrote $OUT" >&2
