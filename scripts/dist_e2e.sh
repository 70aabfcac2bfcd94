#!/usr/bin/env bash
# Real-process distributed e2e for the ohmserve coordinator/worker
# protocol. Spins one coordinator (pure dispatcher: -local-cells -1, so
# every cell MUST travel) and two worker processes, then asserts the
# acceptance criteria end to end:
#
#   1. a fig16 -quick experiment dispatched across both workers returns
#      bytes identical to `ohmfig -quick -json fig16`, and so do fig3a
#      (SSD host link) and abl-phases (phased traces), whose run-variant
#      cells travel like any other — the coordinator simulates nothing,
#      and fig16's timing block counts every simulated cell as remote;
#   2. a warm resubmit reports 0 fresh simulations and 0 remote cells;
#   3. kill -9 on one worker mid-sweep still completes the job, with the
#      result byte-identical to a single-process `ohmbatch` run;
#   4. /metrics on the coordinator AND on a worker serves valid Prometheus
#      text (scraped mid-sweep too), with the key series — cells completed,
#      leases granted, cache hits — consistent with the job results above;
#   5. kill -9 on the COORDINATOR mid-sweep, restarted on the same cache
#      dir + journal, replays the in-flight job under its original id: the
#      surviving worker re-registers, pre-crash cells come from the cache,
#      and the result is byte-identical to a single-process run;
#   6. an optimizer job (POST /v1/optimize) run against the 2-worker
#      cluster returns bytes identical to `ohmbatch -optimize` on the same
#      spec, with the mode-split completion counters accounted;
#   7. a coordinator restarted with a tight per-tenant rate answers
#      over-quota submissions 429 + Retry-After (admission metrics
#      accounted), and a tight -cache-max-bytes budget evicts on startup
#      (eviction metrics accounted).
#
# CI runs this; it also works locally: scripts/dist_e2e.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

echo "== building"
go build -o "$work/ohmserve" ./cmd/ohmserve
go build -o "$work/ohmfig" ./cmd/ohmfig
go build -o "$work/ohmbatch" ./cmd/ohmbatch

addr="127.0.0.1:18099"
base="http://$addr"
w2metrics="http://127.0.0.1:18100"

# start_coord [extra flags...]: (re)start the coordinator on the same
# address, cache dir and journal, wait for healthz, record its pid in
# $coord. Restarting on the same dirs is exactly the crash-recovery path.
coord=""
start_coord() {
    "$work/ohmserve" -addr "$addr" -cache "$work/coord-cache" -local-cells -1 \
        -lease-ttl 3s -lease-poll 2s "$@" >>"$work/coord.log" 2>&1 &
    coord=$!
    pids+=($coord)
    for _ in $(seq 1 100); do
        curl -fsS "$base/v1/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -fsS "$base/v1/healthz" >/dev/null
}

echo "== starting coordinator ($addr, pure dispatch)"
start_coord

echo "== starting 2 workers"
"$work/ohmserve" -worker -join "$base" -worker-name w1 -cache "$work/w1-cache" >"$work/w1.log" 2>&1 &
w1=$!
pids+=($w1)
"$work/ohmserve" -worker -join "$base" -worker-name w2 -cache "$work/w2-cache" \
    -metrics-addr "${w2metrics#http://}" >"$work/w2.log" 2>&1 &
pids+=($!)

# submit <json-body> -> job id
submit() {
    curl -fsS -X POST "$base/v1/sweeps" -d "$1" |
        python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])'
}
# field <job> <field> -> value (empty when omitted, e.g. omitempty bools);
# a dotted field reads into an object (timing.remote_cells)
field() {
    curl -fsS "$base/v1/jobs/$1" | python3 -c '
import sys, json
v = json.load(sys.stdin)
for k in sys.argv[1].split("."):
    v = v.get(k, "") if isinstance(v, dict) else ""
print(v)' "$2"
}
# mval <base-url> <literal-series> -> value (0 when the series is absent)
mval() {
    curl -fsS "$1/metrics" | python3 -c '
import sys
s = sys.argv[1]
v = "0"
for line in sys.stdin:
    if line.startswith(s + " "):
        v = line.rsplit(" ", 1)[1].strip()
        break
print(v)' "$2"
}
# msum <base-url> <family> -> sum over every series of the family,
# labeled or not (ohm_cells_completed_total is split by {mode=...}).
msum() {
    curl -fsS "$1/metrics" | python3 -c '
import sys
name = sys.argv[1]
tot = 0.0
for line in sys.stdin:
    if line.startswith(name + "{") or line.startswith(name + " "):
        tot += float(line.rsplit(" ", 1)[1])
print(int(tot) if tot == int(tot) else tot)' "$2"
}
# assert_ge <value> <floor> <label>
assert_ge() {
    python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) >= float(sys.argv[2]) else 1)' "$1" "$2" ||
        { echo "metric $3 = $1, want >= $2" >&2; exit 1; }
}
# assert_eq <value> <want> <label>
assert_eq() {
    python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) == float(sys.argv[2]) else 1)' "$1" "$2" ||
        { echo "metric $3 = $1, want exactly $2" >&2; exit 1; }
}
# check_expo <base-url> <label>: the body must be well-formed Prometheus
# text — every sample line parses and every family has HELP and TYPE.
check_expo() {
    curl -fsS "$1/metrics" | python3 -c '
import re, sys
helps, types, samples = set(), set(), 0
sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9.eE+-]+$")
name = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
for line in sys.stdin.read().splitlines():
    if not line:
        continue
    if line.startswith("# HELP "):
        helps.add(line.split()[2]); continue
    if line.startswith("# TYPE "):
        types.add(line.split()[2]); continue
    assert sample.match(line), f"malformed sample line: {line!r}"
    fam = re.sub(r"_(sum|count|bucket)$", "", name.match(line).group(0))
    assert fam in helps and fam in types, f"family {fam} lacks HELP/TYPE"
    samples += 1
assert samples > 0, "empty exposition"
print(f"   {sys.argv[1]}: valid exposition ({samples} samples)")' "$2"
}

# wait_done <job> <timeout-seconds>
wait_done() {
    local job=$1 budget=$2 state
    for _ in $(seq 1 $((budget * 5))); do
        state=$(field "$job" state)
        case "$state" in
        done) return 0 ;;
        failed | cancelled)
            echo "job $job ended $state" >&2
            curl -fsS "$base/v1/jobs/$job" >&2 || true
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "job $job timed out" >&2
    return 1
}

echo "== 1. fig16, fig3a and abl-phases -quick across 2 workers vs ohmfig"
job=$(submit '{"experiment":"fig16","params":{"quick":true}}')
wait_done "$job" 300
curl -fsS "$base/v1/jobs/$job/result" >"$work/fig16.dist.json"
"$work/ohmfig" -quick -json fig16 >"$work/fig16.local.json"
cmp "$work/fig16.dist.json" "$work/fig16.local.json"
echo "   byte-identical ($(wc -c <"$work/fig16.dist.json") bytes)"
# Pure dispatch on fresh workers: every cell the job simulated ran on a
# worker; the rest were the coordinator's cache hits on cells an earlier
# figure of the same job had computed.
remote=$(field "$job" timing.remote_cells)
assert_ge "$remote" 1 "cold fig16 timing.remote_cells"
assert_eq "$remote" "$(field "$job" simulated)" "cold fig16 timing.remote_cells vs simulated"
echo "   timing: $remote remote cells = simulated"
for id in fig3a abl-phases; do
    job=$(submit "{\"experiment\":\"$id\",\"params\":{\"quick\":true}}")
    wait_done "$job" 300
    curl -fsS "$base/v1/jobs/$job/result" >"$work/$id.dist.json"
    "$work/ohmfig" -quick -json "$id" >"$work/$id.local.json"
    cmp "$work/$id.dist.json" "$work/$id.local.json"
    echo "   $id byte-identical ($(wc -c <"$work/$id.dist.json") bytes)"
done
# Pure dispatch: every cell above, variant cells included, ran on a worker.
assert_eq "$(mval "$base" ohm_result_cache_misses_total)" 0 "coordinator fresh simulations"
# Snapshot the coordinator's mode-split completion counter before the
# warm rerun: the exactly-once assert below checks the delta.
cold_cc=$(msum "$base" ohm_cells_completed_total)

echo "== 2. warm resubmit answers from the coordinator cache"
job=$(submit '{"experiment":"fig16","params":{"quick":true}}')
wait_done "$job" 120
simulated=$(field "$job" simulated)
if [ "$simulated" != "0" ]; then
    echo "warm resubmit simulated $simulated cells, want 0" >&2
    exit 1
fi
curl -fsS "$base/v1/jobs/$job/result" | cmp - "$work/fig16.local.json"
assert_eq "$(field "$job" timing.remote_cells)" 0 "warm fig16 timing.remote_cells"
echo "   0 fresh simulations, 0 remote cells, bytes identical"
warm_cells=$(field "$job" cells_done)

echo "== metrics: coordinator after cold+warm runs"
check_expo "$base" coordinator
# The cold run dispatched every cell remotely (pure dispatcher), so leases
# were granted and remote completions flowed back; the warm run answered
# every cell from the coordinator's cache through the dispatcher's hit path.
assert_ge "$(mval "$base" ohm_dist_leases_granted_total)" 1 ohm_dist_leases_granted_total
assert_ge "$(mval "$base" ohm_dist_remote_completed_total)" 1 ohm_dist_remote_completed_total
assert_ge "$(mval "$base" ohm_dist_workers_connected)" 2 ohm_dist_workers_connected
assert_ge "$(mval "$base" ohm_dist_cache_hits_total)" "$warm_cells" ohm_dist_cache_hits_total
assert_ge "$(mval "$base" 'ohm_jobs_finished_total{state="done"}')" 2 'ohm_jobs_finished_total{state=done}'
# Mode-split completion accounting must neither drop nor double for
# cluster-resolved cells: the cold run counted nothing here (every cell
# executed — and was counted — on a worker), and the warm run resolved
# every cell through the dispatcher's cache fast path, each of which must
# land in ohm_cells_completed{mode} exactly once.
warm_cc=$(msum "$base" ohm_cells_completed_total)
assert_eq "$((warm_cc - cold_cc))" "$warm_cells" "coordinator ohm_cells_completed delta over warm rerun"
echo "   leases granted, remote completions and $warm_cells+ cache hits accounted"
echo "   warm rerun counted exactly once in ohm_cells_completed ($cold_cc -> $warm_cc)"

echo "== 3. kill -9 one worker mid-sweep"
# Cells sized to run ~1-2s each so every worker is provably mid-cell when
# the kill lands: w1 must die *holding leases*, or the expiry/requeue
# asserts below race against a too-fast sweep.
spec='{"platforms":["origin","ohm-base","ohm-bw"],"modes":["planar"],"workloads":["lud","bfsdata","pagerank"],"max_instructions":150000}'
job=$(submit "{\"spec\":$spec}")
# Let the sweep get going, then hard-kill w1 (no deregister, no
# heartbeat): its leases must expire and the cells requeue onto w2.
sleep 1
kill -9 "$w1" 2>/dev/null || true
echo "== metrics: scraped mid-sweep on coordinator and surviving worker"
check_expo "$base" coordinator
check_expo "$w2metrics" worker
wait_done "$job" 300
curl -fsS "$base/v1/jobs/$job/result" >"$work/killed.dist.json"
echo "$spec" >"$work/kill.spec.json"
"$work/ohmbatch" -spec "$work/kill.spec.json" -cache "$work/batch-cache" -q -o "$work/killed.local.json"
cmp "$work/killed.dist.json" "$work/killed.local.json"
echo "   job survived the kill; bytes identical to ohmbatch"

echo "== metrics: worker-side counters consistent with the job results"
# w2 is the only runner left (pure dispatcher + dead w1): it must have
# completed cells, and the kill must show up as expired leases + requeues
# on the coordinator.
# The completion counter is split by execution mode; a worker runs DES
# cells, so the labeled series must be live (the unlabeled family name
# alone matches nothing since the mode label was added).
assert_ge "$(mval "$w2metrics" 'ohm_cells_completed_total{mode="des"}')" 1 'worker ohm_cells_completed_total{mode=des}'
assert_ge "$(mval "$base" ohm_dist_leases_expired_total)" 1 ohm_dist_leases_expired_total
assert_ge "$(mval "$base" ohm_dist_requeued_total)" 1 ohm_dist_requeued_total
echo "   worker completions, lease expiries and requeues all visible"

echo "== 4. kill -9 the COORDINATOR mid-sweep, restart, replay the job"
# Fresh cells (distinct from every earlier phase) sized to run seconds
# each, so the coordinator provably dies with the sweep in flight.
spec='{"platforms":["origin","ohm-base","ohm-bw"],"modes":["planar"],"workloads":["sssp","betw","gctopo"],"max_instructions":400000}'
job=$(submit "{\"spec\":$spec}")
# Wait until at least one cell is durably finished (journaled + cached),
# then hard-kill the coordinator: no drain, no journal close.
for _ in $(seq 1 300); do
    [ "$(field "$job" cells_done)" != "0" ] && break
    sleep 0.1
done
kill -9 "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true
echo "   coordinator killed with $job in flight; restarting on the same journal"
start_coord
state=$(field "$job" state)
if [ -z "$state" ]; then
    echo "job $job did not survive the restart" >&2
    exit 1
fi
wait_done "$job" 300
if [ "$(field "$job" replayed)" != "True" ]; then
    echo "job $job finished without the replayed marker" >&2
    exit 1
fi
hits=$(field "$job" cache_hits)
assert_ge "$hits" 1 "replayed job cache_hits (pre-crash cells must survive)"
curl -fsS "$base/v1/jobs/$job/result" >"$work/replayed.dist.json"
echo "$spec" >"$work/replay.spec.json"
"$work/ohmbatch" -spec "$work/replay.spec.json" -cache "$work/batch-cache" -q -o "$work/replayed.local.json"
cmp "$work/replayed.dist.json" "$work/replayed.local.json"
echo "   replayed with $hits pre-crash cells from cache; bytes identical to ohmbatch"
assert_ge "$(mval "$base" 'ohm_journal_replayed_jobs_total{disposition="requeued"}')" 1 'ohm_journal_replayed_jobs_total{disposition=requeued}'

echo "== 5. optimizer job across 2 workers vs single-process ohmbatch -optimize"
# Restore a 2-worker cluster (w1 died in phase 3): the optimizer's
# analytical inner loop runs on the coordinator, but its DES confirmation
# cells are keyed and must travel through the dispatcher. The frontier —
# and the full decision log — must come out byte-identical to a
# single-process run of the same spec from a cold cache.
"$work/ohmserve" -worker -join "$base" -worker-name w3 -cache "$work/w3-cache" >"$work/w3.log" 2>&1 &
pids+=($!)
optspec="examples/specs/optimize-throughput.json"
"$work/ohmbatch" -optimize "$optspec" -cache "$work/opt-cache" -q -o "$work/opt.local.json"
job=$(curl -fsS -X POST "$base/v1/optimize" -d @"$optspec" |
    python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
wait_done "$job" 300
curl -fsS "$base/v1/jobs/$job/result" >"$work/opt.dist.json"
cmp "$work/opt.dist.json" "$work/opt.local.json"
frontier=$(python3 -c 'import json,sys; r=json.load(open(sys.argv[1])); print(len(r["frontier"]))' "$work/opt.dist.json")
assert_ge "$frontier" 1 "optimizer frontier size"
# The optimizer's evaluations are analytical-twin cells resolved on the
# coordinator; the mode-split counter must carry them under
# {mode="analytical"} (the dispatcher short-circuits analytical cells to
# the local runner, and that path must not drop them).
assert_ge "$(mval "$base" 'ohm_cells_completed_total{mode="analytical"}')" 1 'coordinator ohm_cells_completed_total{mode=analytical}'
echo "   optimizer result byte-identical to single-process ($frontier frontier points)"

echo "== 6. over-quota submissions answer 429; tight cache budget evicts"
kill -9 "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true
start_coord -tenant-rate 0.001 -tenant-burst 2 -cache-max-bytes 4KB
assert_ge "$(mval "$base" ohm_cache_evictions_total)" 1 ohm_cache_evictions_total
assert_ge "$(mval "$base" ohm_cache_reclaimed_bytes_total)" 1 ohm_cache_reclaimed_bytes_total
echo "   startup GC evicted down to the 4KB budget"
tiny='{"spec":{"platforms":["origin"],"modes":["planar"],"workloads":["lud"],"max_instructions":150000}}'
j1=$(submit "$tiny")
j2=$(submit "$tiny")
code=$(curl -sS -o "$work/reject.json" -w '%{http_code}' -X POST "$base/v1/sweeps" -d "$tiny")
if [ "$code" != "429" ]; then
    echo "over-burst submit = HTTP $code, want 429: $(cat "$work/reject.json")" >&2
    exit 1
fi
retry=$(curl -sS -o /dev/null -D - -X POST "$base/v1/sweeps" -d "$tiny" |
    tr -d '\r' | awk 'tolower($1)=="retry-after:" {print $2}')
assert_ge "${retry:-0}" 1 "Retry-After header seconds"
python3 -c '
import json,sys
r = json.load(open(sys.argv[1]))
assert r["reason"] == "rate_limited", r
assert r["tenant"] == "default", r
assert r["retry_after_seconds"] >= 1, r' "$work/reject.json"
check_expo "$base" coordinator
assert_ge "$(mval "$base" ohm_admission_accepted_total'{tenant="default"}')" 2 'ohm_admission_accepted_total{tenant=default}'
assert_ge "$(mval "$base" ohm_admission_rejected_total'{tenant="default",reason="rate_limited"}')" 1 ohm_admission_rejected_total
assert_ge "$(mval "$base" ohm_admission_tenants)" 1 ohm_admission_tenants
wait_done "$j1" 120
wait_done "$j2" 120
echo "   429 + Retry-After with machine-readable reason; admission series accounted"

echo "== distributed e2e OK"
