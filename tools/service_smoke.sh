#!/usr/bin/env bash
# Service fleet smoke: boot two daemons and a `sadp_routed --backends`
# front (the dispatcher), drive real batches through the front door, and
# assert the fleet behaviors the tests can't see from inside one process:
#
#   * zero failed rows across repeated batches through the dispatcher;
#   * nonzero cache hits once every backend has seen the batch (the
#     dispatcher alternates backends by forwarded count, so run 3 lands
#     on a warm cache wherever it goes);
#   * control-plane stats through the dispatcher aggregate both backends,
#     both alive (backend B is given by host name, localhost:PORT);
#   * every process answers a {"type":"metrics"} scrape with Prometheus
#     text exposition (expected families asserted per role);
#   * a sadp.flow_delta.v1 ECO request through the dispatcher returns the
#     same wire lines (modulo framing/timings) as the in-process CLI, and a
#     repeat of the same delta is served from the result cache;
#   * with --trace on every process, graceful shutdown writes per-process
#     trace files that `sadp_flow_report --merge` combines into one fleet
#     timeline where a single trace_id links dispatcher relay spans to
#     backend admission/run spans.
#
# Then (unless --skip-bench) run bench_service and track the numbers in
# BENCH_service.json with the same freeze-on-first-run baseline scheme
# as BENCH_router.json.  The hit/miss p50 ratio is a hard gate: the
# result cache must keep the hit path at least 10x faster than routing.
#
# Usage: tools/service_smoke.sh [build_dir] [--rebaseline] [--skip-bench]
#                               [--skip-topology] [--ubsan]
#
# --ubsan runs the smoke in a dedicated UBSan tree (build-ubsan unless a
# build_dir is given): the fleet's bit-twiddling paths (CRC32, journal
# framing, wire parsing) get exercised under
# -fsanitize=undefined,float-cast-overflow with real sockets, which the
# unit tests can't fully reach.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=""
REBASELINE=0
SKIP_BENCH=0
SKIP_TOPOLOGY=0
UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --rebaseline) REBASELINE=1 ;;
    --skip-bench) SKIP_BENCH=1 ;;
    --skip-topology) SKIP_TOPOLOGY=1 ;;
    --ubsan) UBSAN=1 ;;
    *) BUILD="$arg" ;;
  esac
done
if [ -z "$BUILD" ]; then
  [ "$UBSAN" -eq 1 ] && BUILD="build-ubsan" || BUILD="build-ci"
fi

# Only configure when the tree is fresh: the caller may hand us a
# sanitizer build dir whose cache we must not rewrite to Release.
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  if [ "$UBSAN" -eq 1 ]; then
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
      -DSADP_SANITIZE=undefined,float-cast-overflow >/dev/null
  else
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
fi
cmake --build "$BUILD" -j "$(nproc)" \
  --target sadp_routed bench_service sadp_flow_report sadp_route \
  >/dev/null

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

scrape_port() {  # scrape_port <logfile>
  local log="$1" port="" i
  for i in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "service smoke: no 'listening on' banner in $log" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$port"
}

if [ "$SKIP_TOPOLOGY" -eq 0 ]; then
  echo "== service smoke: 2-backend topology through the dispatcher"
  # Every process records a trace: the merged fleet timeline is asserted
  # after shutdown (trace files are written on graceful exit).
  "./$BUILD/apps/sadp_routed" --port 0 --workers 2 \
    --trace "$workdir/trace_a.json" >"$workdir/a.log" 2>&1 &
  pids+=($!)
  PORT_A="$(scrape_port "$workdir/a.log")"

  "./$BUILD/apps/sadp_routed" --port 0 --workers 2 \
    --trace "$workdir/trace_b.json" >"$workdir/b.log" 2>&1 &
  pids+=($!)
  PORT_B="$(scrape_port "$workdir/b.log")"

  "./$BUILD/apps/sadp_routed" --port 0 \
    --backends "127.0.0.1:$PORT_A,localhost:$PORT_B" \
    --probe-interval-ms 100 \
    --trace "$workdir/trace_d.json" >"$workdir/d.log" 2>&1 &
  pids+=($!)
  PORT_D="$(scrape_port "$workdir/d.log")"

  # Three identical batches: runs 1 and 2 warm each backend's cache in
  # turn (the dispatcher alternates by forwarded count at equal queue
  # depth), run 3 must land on a warm one.
  for run in 1 2 3; do
    "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_D" \
      --benchmark ecc,efc --keep-going \
      >"$workdir/run$run.out" 2>"$workdir/run$run.err"
  done
  for run in 1 2 3; do
    if ! grep -q " 0 failed," "$workdir/run$run.out"; then
      echo "service smoke: run $run reported failed rows" >&2
      cat "$workdir/run$run.out" "$workdir/run$run.err" >&2
      exit 1
    fi
  done
  if ! grep -q "cache 2/2" "$workdir/run3.out"; then
    echo "service smoke: warm run was not served from cache" >&2
    cat "$workdir/run3.out" >&2
    exit 1
  fi
  echo "   3 batches, 0 failed rows, warm run fully cache-served"

  "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_D" --control stats \
    >"$workdir/stats.out"
  if ! grep -q "peer " "$workdir/stats.out"; then
    echo "service smoke: dispatcher stats listed no backends" >&2
    cat "$workdir/stats.out" >&2
    exit 1
  fi
  if grep -q "^peer .*alive=no" "$workdir/stats.out"; then
    echo "service smoke: dispatcher sees a dead backend" >&2
    cat "$workdir/stats.out" >&2
    exit 1
  fi
  echo "   dispatcher stats aggregate $(grep -c '^peer ' "$workdir/stats.out") backends"

  echo "== service smoke: metrics scrape on every process"
  "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_A" --control metrics \
    >"$workdir/metrics_a.txt"
  "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_B" --control metrics \
    >"$workdir/metrics_b.txt"
  "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_D" --control metrics \
    >"$workdir/metrics_d.txt"
  for d in a b; do
    for family in \
      "# TYPE sadp_process_uptime_seconds gauge" \
      "# TYPE sadp_server_requests_total counter" \
      "# TYPE sadp_server_request_run_seconds histogram" \
      "# TYPE sadp_engine_jobs_total counter"; do
      if ! grep -qF "$family" "$workdir/metrics_$d.txt"; then
        echo "service smoke: daemon $d exposition misses '$family'" >&2
        cat "$workdir/metrics_$d.txt" >&2
        exit 1
      fi
    done
  done
  if ! grep -q 'sadp_dispatch_relay_seconds_bucket{backend=' \
      "$workdir/metrics_d.txt"; then
    echo "service smoke: dispatcher exposition misses the relay histogram" >&2
    cat "$workdir/metrics_d.txt" >&2
    exit 1
  fi
  echo "   all 3 processes serve Prometheus exposition over the control plane"

  # ECO delta round trip: the same sadp.flow_delta.v1 request served two
  # ways -- in process and by the fleet through the dispatcher, each
  # printed as raw wire lines by --delta --wire -- must agree byte for
  # byte once transport framing and timings are stripped.  Three fleet
  # runs: 1 and 2 warm each backend's cache in turn, run 3 must be
  # cache-served.
  echo "== service smoke: ECO delta round trip through the dispatcher"
  "./$BUILD/apps/sadp_route" --benchmark ecc_s \
    --save-solution "$workdir/base.sol" >/dev/null
  "./$BUILD/apps/sadp_route" --benchmark ecc_s --delta \
    --base-solution "$workdir/base.sol" --move-pin "3,1,10,12" --wire \
    >"$workdir/eco_inproc.txt"
  for run in 1 2 3; do
    "./$BUILD/apps/sadp_route" --connect "127.0.0.1:$PORT_D" \
      --benchmark ecc_s --delta --base-solution "$workdir/base.sol" \
      --move-pin "3,1,10,12" --wire >"$workdir/eco_fleet$run.txt"
  done
  for run in 1 2 3; do
    INPROC="$workdir/eco_inproc.txt" FLEET="$workdir/eco_fleet$run.txt" \
      RUN="$run" python3 - <<'EOF'
import json, os, sys

# Transport framing the dispatcher/daemon add around the payload, plus
# anything timing-shaped; everything else must replay byte-identically.
DROP = {"trace_id", "span_id", "cache", "sent_unix_us", "recv_unix_us",
        "cache_hits", "cache_misses"}

def scrub(value):
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in sorted(value.items())
                if k not in DROP and not k.endswith("_seconds")}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value

def normalize(path):
    with open(path) as f:
        return [json.dumps(scrub(json.loads(line)), sort_keys=True)
                for line in f if line.strip()]

inproc = normalize(os.environ["INPROC"])
fleet = normalize(os.environ["FLEET"])
run = os.environ["RUN"]
if len(inproc) != len(fleet):
    sys.exit(f"service smoke: ECO run {run} stream has {len(fleet)} lines, "
             f"in-process has {len(inproc)}")
for i, (a, b) in enumerate(zip(inproc, fleet)):
    if a != b:
        sys.exit(f"service smoke: ECO run {run} line {i} differs\n"
                 f"  in-process: {a}\n  fleet:      {b}")
EOF
  done
  if ! grep -q '"cache":"hit"' "$workdir/eco_fleet3.txt"; then
    echo "service smoke: warm ECO delta was not served from cache" >&2
    cat "$workdir/eco_fleet3.txt" >&2
    exit 1
  fi
  ripped="$(sed -n 's/.*"nets_ripped":\([0-9]*\).*/\1/p' \
    "$workdir/eco_inproc.txt")"
  echo "   fleet delta matches in-process (ripped $ripped), warm run cache-served"

  # Graceful shutdown writes the per-process trace files; merge them into
  # one fleet timeline and check cross-process trace propagation.
  echo "== service smoke: fleet trace merge"
  for pid in "${pids[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  pids=()
  "./$BUILD/tools/sadp_flow_report" --merge "$workdir/fleet_trace.json" \
    "$workdir/trace_d.json" "$workdir/trace_a.json" "$workdir/trace_b.json" \
    2>"$workdir/merge.err"
  FLEET="$workdir/fleet_trace.json" python3 - <<'EOF'
import collections, json, os, sys

with open(os.environ["FLEET"]) as f:
    doc = json.load(f)
if doc.get("schema") != "sadp.fleet_trace.v1":
    sys.exit(f"service smoke: unexpected merged schema {doc.get('schema')}")

pids_by_trace = collections.defaultdict(set)   # trace_id -> pids seen
names_by_trace = collections.defaultdict(set)  # trace_id -> span names
for event in doc["traceEvents"]:
    trace_id = (event.get("args") or {}).get("trace_id")
    if trace_id:
        pids_by_trace[trace_id].add(event["pid"])
        names_by_trace[trace_id].add(event["name"])

fleet_wide = [t for t, pids in pids_by_trace.items() if len(pids) >= 2]
if not fleet_wide:
    sys.exit("service smoke: no trace_id spans more than one process")
crossed = [t for t in fleet_wide
           if "dispatch.relay" in names_by_trace[t]
           and "server.run" in names_by_trace[t]]
if not crossed:
    sys.exit("service smoke: no trace links a relay span to a server run")
print(f"   {len(pids_by_trace)} traces merged; "
      f"{len(fleet_wide)} span the fleet "
      f"(relay -> admission -> run on one timeline)")
EOF
fi

if [ "$SKIP_BENCH" -eq 0 ]; then
  echo "== service smoke: bench_service baseline tracking"
  bench_json="$workdir/bench_service.json"
  "./$BUILD/bench/bench_service" --seconds 3 --pool 12 --hits 100 \
    >"$bench_json"

  REBASELINE="$REBASELINE" BENCH="$bench_json" python3 - <<'EOF'
import json, os, sys

out_path = "BENCH_service.json"

with open(os.environ["BENCH"]) as f:
    raw = json.load(f)

current = {
    "miss_p50_ms": raw["miss"]["p50_ms"],
    "miss_p99_ms": raw["miss"]["p99_ms"],
    "hit_p50_ms": raw["hit"]["p50_ms"],
    "hit_p99_ms": raw["hit"]["p99_ms"],
    "saturation_rps": round(raw["closed_loop"]["rps"], 1),
    "closed_loop_p50_ms": raw["closed_loop"]["p50_ms"],
    "closed_loop_p99_ms": raw["closed_loop"]["p99_ms"],
    "cache_hit_rate": round(raw["closed_loop"]["cache_hit_rate"], 4),
    "errored": raw["closed_loop"]["errored"],
}

hit_speedup = (current["miss_p50_ms"] / current["hit_p50_ms"]
               if current["hit_p50_ms"] else 0.0)
current["hit_vs_miss_p50"] = round(hit_speedup, 1)

baseline = None
if not int(os.environ["REBASELINE"]) and os.path.exists(out_path):
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
for key in ("miss_p50_ms", "hit_p50_ms", "closed_loop_p50_ms",
            "closed_loop_p99_ms"):
    if current[key]:
        ratio[key] = round(baseline[key] / current[key], 3)
# Throughput: current/baseline so >1.0 still means better.
if baseline["saturation_rps"]:
    ratio["saturation_rps"] = round(
        current["saturation_rps"] / baseline["saturation_rps"], 3)

doc = {
    "schema": "sadp.bench_service.v1",
    "baseline": baseline,
    "current": current,
    "ratio_vs_baseline": ratio,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
print(f"   miss p50 {current['miss_p50_ms']:.2f}ms  "
      f"hit p50 {current['hit_p50_ms']:.3f}ms  "
      f"({current['hit_vs_miss_p50']:.0f}x)")
print(f"   closed loop {current['saturation_rps']:.0f} rps, "
      f"p99 {current['closed_loop_p99_ms']:.2f}ms, "
      f"hit rate {current['cache_hit_rate']:.2f}, "
      f"{current['errored']} errors")

if current["errored"]:
    sys.exit("service smoke: closed-loop clients saw errors")
if hit_speedup < 10.0:
    sys.exit(f"service smoke: cache hit path only {hit_speedup:.1f}x faster "
             "than miss path (need >= 10x)")
EOF
fi

echo "service smoke passed"
