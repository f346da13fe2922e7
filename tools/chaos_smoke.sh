#!/usr/bin/env bash
# Chaos smoke: drive the router and the service fleet through seeded
# failpoint schedules plus SIGKILL, and assert the two durability
# guarantees the unit tests can't see end to end:
#
#   * zero lost or duplicated rows — every label the batch admitted shows
#     up exactly once after `--resume`, no matter where the faults or the
#     kill landed;
#   * bit-identical outcomes — every non-timing row field (wirelength,
#     via counts, DVI results, all perf counters) of a chaos-then-resume
#     run equals the clean reference run byte for byte.
#
# Part 1 runs seven seeded journal-chaos schedules against sadp_route
# (injected EIO / short writes / sync failures / delays, SIGKILL on four
# of them), each followed by a failpoint-free `--resume` that must exit 0
# and reproduce the reference report.  Part 2 boots the dispatcher +
# 2-daemon fleet, arms four row-preserving schedules over the control
# plane (`sadp_route --control failpoints`), and checks every batch reports
# zero failed rows and the same result table (CPU column aside) as the
# clean batch;
# it closes by SIGKILLing one backend and proving the dispatcher routes
# the next batch around the corpse.  Eleven seeded runs total.
#
# Schedules are deterministic: seed N always draws the same faults at the
# same sites (the failpoint RNG is keyed on seed and site name), so a
# failure here replays exactly with `--failpoints-seed N`.
#
# Usage: tools/chaos_smoke.sh [build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="build-ci"
for arg in "$@"; do
  case "$arg" in
    *) BUILD="$arg" ;;
  esac
done

# Only configure when the tree is fresh: the caller may hand us a
# sanitizer build dir whose cache we must not rewrite to Release.
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD" -j "$(nproc)" \
  --target sadp_route sadp_routed sadp_route_dispatch >/dev/null

CLI="./$BUILD/apps/sadp_route"
BENCH="ecc,efc,ctl"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]:-}"; do
    { wait "$pid" || true; } 2>/dev/null
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

scrape_port() {  # scrape_port <logfile> <banner-prefix>
  local log="$1" prefix="$2" port="" i
  for i in $(seq 1 100); do
    port="$(sed -n "s/^${prefix} 127\.0\.0\.1:\([0-9]*\)$/\1/p" "$log")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "chaos smoke: no '$prefix' banner in $log" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$port"
}

# compare_reports <ref.json> <got.json>: same label set, no duplicates,
# byte-identical non-timing fields.  Timing (total_seconds, stages) and
# provenance (from_journal) are the only legitimate differences between
# a clean run and a chaos-then-resume run.
compare_reports() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

TIMING = {"total_seconds", "stages", "from_journal"}

def rows(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc["results"]:
        label = row["label"]
        if label in out:
            sys.exit(f"chaos smoke: duplicated row '{label}' in {path}")
        out[label] = {k: v for k, v in row.items() if k not in TIMING}
    return out

ref, got = rows(sys.argv[1]), rows(sys.argv[2])
if set(ref) != set(got):
    lost = sorted(set(ref) - set(got))
    extra = sorted(set(got) - set(ref))
    sys.exit(f"chaos smoke: lost rows {lost}, extra rows {extra}")
for label in sorted(ref):
    if ref[label] != got[label]:
        bad = [k for k in ref[label]
               if ref[label][k] != got[label].get(k)]
        sys.exit(f"chaos smoke: row '{label}' diverged on {bad}")
print(f"   {len(ref)} rows identical (timing aside)")
EOF
}

echo "== chaos smoke part 1: journal chaos + SIGKILL + resume"
"$CLI" --benchmark "$BENCH" --jobs 2 --keep-going \
  --json-report "$workdir/ref.json" >/dev/null 2>&1

# Seeded schedules.  Every one is row-preserving: an append/sync failure
# loses journal bytes (recovered by the re-run on resume), never rows a
# clean process would have produced; delays only move the kill window.
SCHEDULES=(
  "unused-seed-0"
  "journal.append=err@0.4"
  "journal.append=short@0.4;engine.job=delay(30ms)@0.6"
  "journal.sync=err@0.6"
  "journal.append=short@0.3;journal.sync=err@0.3;engine.job=delay(40ms)"
  "engine.job=delay(30ms)@0.7;journal.append=err@0.2"
  "journal.append=short@0.6;journal.sync=err@0.2"
  "journal.sync=err@0.4;engine.job=delay(30ms)@0.4"
)
SIGKILL_AFTER=("" "" "0.15" "" "0.25" "0.10" "" "0.20")

for seed in 1 2 3 4 5 6 7; do
  journal="$workdir/chaos$seed.journal"
  "$CLI" --benchmark "$BENCH" --jobs 2 --keep-going \
    --journal "$journal" --journal-sync always \
    --failpoints "${SCHEDULES[$seed]}" --failpoints-seed "$seed" \
    >"$workdir/chaos$seed.out" 2>"$workdir/chaos$seed.err" &
  chaos_pid=$!
  killed="survived"
  if [ -n "${SIGKILL_AFTER[$seed]}" ]; then
    sleep "${SIGKILL_AFTER[$seed]}"
    kill -KILL "$chaos_pid" 2>/dev/null || true
    killed="SIGKILL@${SIGKILL_AFTER[$seed]}s"
  fi
  # Braces keep bash's asynchronous "Killed" job report off the log;
  # injected journal errors exit nonzero by design.
  { wait "$chaos_pid" || true; } 2>/dev/null

  # The resume run carries no failpoints and must finish clean.
  if ! "$CLI" --benchmark "$BENCH" --jobs 2 --keep-going \
      --journal "$journal" --resume \
      --json-report "$workdir/resume$seed.json" \
      >"$workdir/resume$seed.out" 2>"$workdir/resume$seed.err"; then
    echo "chaos smoke: seed $seed resume run failed" >&2
    cat "$workdir/resume$seed.err" >&2
    exit 1
  fi
  skipped="$(grep -c 'torn/corrupt' "$workdir/resume$seed.err" || true)"
  echo "   seed $seed [${SCHEDULES[$seed]}] $killed:" \
    "resume ok (torn-tail reports: $skipped)"
  compare_reports "$workdir/ref.json" "$workdir/resume$seed.json"
done

echo "== chaos smoke part 2: fleet chaos through the dispatcher"
"./$BUILD/apps/sadp_routed" --port 0 --workers 2 >"$workdir/a.log" 2>&1 &
pids+=($!)
PID_A=$!
disown "$PID_A"  # keep bash's async job-death notices off the log
PORT_A="$(scrape_port "$workdir/a.log" "listening on")"

"./$BUILD/apps/sadp_routed" --port 0 --workers 2 >"$workdir/b.log" 2>&1 &
pids+=($!)
PID_B=$!
disown "$PID_B"
PORT_B="$(scrape_port "$workdir/b.log" "listening on")"

"./$BUILD/apps/sadp_route_dispatch" --port 0 \
  --backends "127.0.0.1:$PORT_A,127.0.0.1:$PORT_B" \
  --probe-interval-ms 100 --stale-after-ms 500 \
  >"$workdir/d.log" 2>&1 &
pids+=($!)
disown "$!"
PORT_D="$(scrape_port "$workdir/d.log" "dispatching on")"

run_fleet_batch() {  # run_fleet_batch <outfile>
  "$CLI" --connect "127.0.0.1:$PORT_D" \
    --benchmark ecc,efc --keep-going >"$1" 2>"$1.err"
  if ! grep -q " 0 failed," "$1"; then
    echo "chaos smoke: fleet batch reported failed rows" >&2
    cat "$1" "$1.err" >&2
    exit 1
  fi
}

# compare_tables <ref.out> <got.out>: the result tables must match byte
# for byte outside the CPU(s) column (field 5 of each 8-field row).
compare_tables() {
  python3 - "$1" "$2" <<'EOF'
import sys

def rows(path):
    out = []
    with open(path) as f:
        for line in f:
            if not line.startswith("|"):
                continue
            cells = [c.strip() for c in line.strip().split("|")[1:-1]]
            if len(cells) == 8 and cells[1] in ("ok", "degraded"):
                out.append(cells[:4] + cells[5:])
    if not out:
        sys.exit(f"chaos smoke: no result rows in {path}")
    return out

ref, got = rows(sys.argv[1]), rows(sys.argv[2])
labels = [r[0] for r in got]
if len(labels) != len(set(labels)):
    sys.exit(f"chaos smoke: duplicated fleet rows {labels}")
if ref != got:
    sys.exit(f"chaos smoke: fleet tables diverged:\n  ref {ref}\n  got {got}")
print(f"   {len(got)} fleet rows identical (CPU column aside)")
EOF
}

run_fleet_batch "$workdir/fleet_ref.out"

# Row-preserving fleet schedules: short sends trickle the response out a
# byte at a time, cache faults force recomputes (lookup) or re-misses
# (insert), executor delays stall workers — none may change a row.
FLEET_SCHEDULES=(
  "net.write=short@0.5"
  "cache.lookup=err@0.6;cache.insert=err@0.6"
  "executor.task=delay(40ms)@0.7;cache.insert=err@0.5"
  "net.write=short@0.3;executor.task=delay(25ms)@0.5"
)
for i in 0 1 2 3; do
  seed=$((8 + i))
  for port in "$PORT_A" "$PORT_B"; do
    "$CLI" --connect "127.0.0.1:$port" --control failpoints \
      --failpoints "${FLEET_SCHEDULES[$i]}" --failpoints-seed "$seed" \
      >/dev/null
  done
  run_fleet_batch "$workdir/fleet$seed.out"
  compare_tables "$workdir/fleet_ref.out" "$workdir/fleet$seed.out"
  echo "   seed $seed [${FLEET_SCHEDULES[$i]}]: 0 failed rows"
  for port in "$PORT_A" "$PORT_B"; do
    "$CLI" --connect "127.0.0.1:$port" --control failpoints >/dev/null
  done
done

# Finale: SIGKILL one backend mid-fleet; the dispatcher must route the
# next batch around the corpse with zero failed rows.
kill -KILL "$PID_B" 2>/dev/null || true
{ wait "$PID_B" || true; } 2>/dev/null
sleep 0.8  # let the probe loop notice the stale backend
run_fleet_batch "$workdir/fleet_failover.out"
compare_tables "$workdir/fleet_ref.out" "$workdir/fleet_failover.out"
echo "   backend SIGKILL: dispatcher routed around it, 0 failed rows"

echo "chaos smoke passed (11 seeded runs, 0 lost rows, 0 duplicated rows)"
