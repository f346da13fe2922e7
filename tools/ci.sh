#!/usr/bin/env bash
# Full local CI gate:
#   1. Debug build with ASan+UBSan, full ctest
#   2. ASan server smoke: sadp_routed + sadp_route --connect round trip
#   3. ASan fleet smoke: dispatcher + 2 backends, cache hits, 0 failed rows
#   4. ASan chaos smoke: 11 seeded failpoint/SIGKILL schedules, rows
#      must survive bit-identical through --resume and the fleet
#   5. UBSan fleet smoke: same topology under -DSADP_SANITIZE=undefined
#   6. Release build, full ctest; then exact DVI on ecc/efc/ctl/div with
#      --validate, which checks the routing and every DVI insertion; then
#      one ECO delta per edit kind against a saved ecc_s solution, each
#      with --validate
#   7. End-to-end benchmark smoke: bench_e2e/run_benchmark.py --smoke runs
#      every workload at toy size with all checks and tracing; any failed
#      check fails (including the standalone exact-DVI #DV match)
#   8. Release bench smoke run; any `status=failed` progress line fails
#   9. Router + partition perf smokes: BENCH_router.json and
#      BENCH_partition.json (the latter gates partitions=4 >= 1.6x serial
#      on ecc_10x_ramp)
#  10. Service perf smoke: bench_service baselines into BENCH_service.json
#  11. ECO perf smoke: bench_eco baselines into BENCH_eco.json and gates
#      the incremental path >= 5x faster than a full re-route (p50)
#
# Step 7.5 runs the PartitionParallel test suite under TSan: region workers
# route on genuinely concurrent threads there, so a cross-region write is a
# reported race, not a lucky pass.  The telemetry bit-identity tests run in
# the same tree: rows must stay byte-identical with tracing/metrics on or
# off, and the fleet smokes (steps 3/5) scrape every process's metrics and
# merge the per-process traces into one fleet timeline.
#
# Usage: tools/ci.sh [jobs]   (jobs defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== Debug + ASan/UBSan =="
run_suite build-asan -DCMAKE_BUILD_TYPE=Debug "-DSADP_SANITIZE=address,undefined"

echo "== ASan server smoke (sadp_routed round trip) =="
server_log="$(mktemp)"
client_log="$(mktemp)"
trap 'rm -f "$server_log" "$client_log"' EXIT
./build-asan/apps/sadp_routed --port 0 --workers 1 > "$server_log" &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$server_log")"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "server smoke: daemon never printed its port" >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
./build-asan/apps/sadp_route --connect "127.0.0.1:$port" --benchmark ecc \
    --keep-going 2> >(tee "$client_log" >&2)
if ! grep -q "status=ok" "$client_log"; then
  echo "server smoke: no finished row from the client" >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
kill -TERM "$server_pid"
wait "$server_pid"   # set -e: a non-zero daemon exit fails the gate

echo "== ASan fleet smoke (dispatcher + 2 backends) =="
tools/service_smoke.sh build-asan --skip-bench

echo "== ASan chaos smoke (seeded failpoints + SIGKILL) =="
tools/chaos_smoke.sh build-asan

echo "== UBSan fleet smoke (dispatcher + 2 backends) =="
tools/service_smoke.sh --ubsan --skip-bench

echo "== Release =="
run_suite build-ci -DCMAKE_BUILD_TYPE=Release

echo "== exact-DVI validation (routing and DVI checks, nonzero exit on any issue) =="
./build-ci/apps/sadp_route --benchmark ecc,efc,ctl,div --dvi-method exact --validate

echo "== ECO validation (one --delta --validate per edit kind on ecc_s) =="
./build-ci/apps/sadp_route --benchmark ecc_s --save-solution build-ci/eco_base.sol
for edit in "--move-pin 3,1,10,12" "--remove-net 5" \
            "--add-blockage 20,20,24,24" "--add-net n:2,2,30,9"; do
  # $edit is a flag and its value, left unquoted to split in two
  ./build-ci/apps/sadp_route --benchmark ecc_s --delta \
      --base-solution build-ci/eco_base.sol $edit --validate
done

echo "== end-to-end benchmark smoke (every workload at toy size, all checks) =="
python3 bench_e2e/run_benchmark.py --smoke

echo "== TSan trace smoke (--trace under 2 workers) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DSADP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target sadp_route sadp_flow_report

echo "== TSan partition tests (concurrent region workers) =="
cmake --build build-tsan -j "$JOBS" --target sadp_tests
ctest --test-dir build-tsan --output-on-failure -R 'PartitionParallel'

echo "== TSan telemetry bit-identity (rows unchanged by tracing/trace context) =="
# Flow rows must be bit-identical with tracing on, off, across worker
# counts, and with trace context absent vs present — checked here under
# TSan so the instrumentation's atomics are also race-clean.
ctest --test-dir build-tsan --output-on-failure \
  -R 'FlowRowsBitIdenticalWithTracingOnOffAndParallel|TraceContextLeavesRowsBitIdentical|MetricsScrapeWorksWarmAndWhileDraining'
trace_json="$(mktemp --suffix=.json)"
trap 'rm -f "$server_log" "$client_log" "$trace_json"' EXIT
./build-tsan/apps/sadp_route --benchmark ecc,efc --jobs 2 --trace "$trace_json"
for span in initial_routing congestion_rr route_net "job:" dvi; do
  if ! grep -q "\"$span" "$trace_json"; then
    echo "TSan trace smoke: span '$span' missing from $trace_json" >&2
    exit 1
  fi
done
./build-tsan/tools/sadp_flow_report --trace "$trace_json" >/dev/null

echo "== bench smoke (scaled, heuristic-speed) =="
smoke_log="$(mktemp)"
trap 'rm -f "$server_log" "$client_log" "$trace_json" "$smoke_log"' EXIT
./build-ci/apps/sadp_route --benchmark all --jobs "$JOBS" --keep-going \
    2> >(tee "$smoke_log" >&2)
if grep -q "status=failed" "$smoke_log"; then
  echo "bench smoke: failed jobs detected" >&2
  exit 1
fi

echo "== router + partition perf smoke (BENCH_router.json, BENCH_partition.json) =="
tools/perf_smoke.sh build-ci

echo "== service perf smoke (BENCH_service.json) =="
tools/service_smoke.sh build-ci --skip-topology

echo "== eco perf smoke (BENCH_eco.json) =="
cmake --build build-ci -j "$JOBS" --target bench_eco >/dev/null
eco_json="$(mktemp --suffix=.json)"
trap 'rm -f "$server_log" "$client_log" "$trace_json" "$smoke_log" "$eco_json"' EXIT
./build-ci/bench/bench_eco >"$eco_json"
BENCH="$eco_json" python3 - <<'EOF'
import json, os, sys

out_path = "BENCH_eco.json"

with open(os.environ["BENCH"]) as f:
    raw = json.load(f)

current = {
    "ckt": raw["ckt"],
    "nets": raw["nets"],
    "full_p50_ms": raw["full"]["p50_ms"],
    "eco_p50_ms": raw["eco"]["p50_ms"],
    "ripped_p50": raw["eco"]["ripped_p50"],
    "speedup_p50": raw["speedup_p50"],
}

baseline = None
if os.path.exists(out_path):
    try:
        with open(out_path) as f:
            baseline = json.load(f).get("baseline")
    except (json.JSONDecodeError, OSError):
        baseline = None
if baseline is None:
    baseline = dict(current)
else:
    for key, value in current.items():
        baseline.setdefault(key, value)

ratio = {}
# Latencies: baseline/current so >1.0 means we got faster.
for key in ("full_p50_ms", "eco_p50_ms"):
    if current[key]:
        ratio[key] = round(baseline[key] / current[key], 3)

doc = {
    "schema": "sadp.bench_eco.v1",
    "baseline": baseline,
    "current": current,
    "ratio_vs_baseline": ratio,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
print(f"   full p50 {current['full_p50_ms']:.1f}ms  "
      f"eco p50 {current['eco_p50_ms']:.1f}ms  "
      f"({current['speedup_p50']:.1f}x, ripped p50 "
      f"{current['ripped_p50']:.0f}/{current['nets']})")

if current["speedup_p50"] < 5.0:
    sys.exit(f"eco smoke: incremental path only {current['speedup_p50']:.1f}x "
             "faster than a full re-route (need >= 5x)")
EOF

echo "CI gate passed."
