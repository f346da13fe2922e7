#!/usr/bin/env python3
"""Build, run and report the end-to-end benchmark (see README.md).

One workload, one run (what BENCHMARK.json's command runs):

  python3 bench_e2e/run_benchmark.py --workload route_10x --seed 1 \\
      --seconds 20 --trace 0

builds bench_e2e (Release) under $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e), runs the workload, prints every metric with its unit,
sample count, median and quartiles, and ends with one JSON line:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones plus the traced self-time table.  A failed check makes
"correct" false and the exit code 1.

Repeated runs and comparison:

  run_benchmark.py --record A.json [--runs 10] [--seed 1]
  run_benchmark.py --compare A.json B.json

--record runs every workload --runs times (seeds seed, seed+1, ...) and
stores each end-to-end value; --compare labels every (metric, workload)
pair of B against A as better, same, worse or unresolved under the bounds
of BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    at = q * (len(ordered) - 1)
    lo = math.floor(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (at - lo) * (ordered[hi] - ordered[lo])


def quartiles(values):
    """q1, median, q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    return tuple(statistics.quantiles(values, n=4))


# ---------------------------------------------------------------------------
# Build and run


def build():
    """Configure once and build bench_e2e; returns the binary path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bench_e2e"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e")


def run_bench(binary, workload, seed, seconds, trace):
    """One bench_e2e run; returns (raw sample document, exit code)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("bench_e2e printed no result (exit %d)" % done.returncode)
    return json.loads(lines[-1]), done.returncode


# ---------------------------------------------------------------------------
# Metrics


def single(value):
    return [value], value


def fixed_quality(key):
    return lambda raw: single(raw["fixed_quality"][key])


# End-to-end metrics from the raw samples: name -> (samples, value).
END_TO_END = {
    "setup_s": lambda raw: (raw["setup_s"], percentile(raw["setup_s"], 0.5)),
    "latency_p50_ms": lambda raw: (raw["latency_ms"], percentile(raw["latency_ms"], 0.5)),
    "slo_met_frac": lambda raw: single(raw["slo_met"] / max(1, len(raw["latency_ms"]))),
    "success_frac": lambda raw: single(
        (raw["attempted"] - raw["failed"]) / max(1, raw["attempted"])),
    "peak_rss_mb": lambda raw: single(raw["peak_rss_mb"]),
    "wirelength": fixed_quality("wirelength"),
    "via_count": fixed_quality("via_count"),
    "dead_vias": fixed_quality("dead_vias"),
}

# Printed with every untraced run but not gated: their run-to-run spread
# is wider than the largest bound a metric may have (README.md).
TAILS = {
    "latency_p90_ms": 0.9,
    "latency_p99_ms": 0.99,
}


def metrics_of(raw, spec, trace):
    """The reported metrics: {name: (value, unit, samples)}."""
    out = {}
    if trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in raw["layers"]:
                raise SystemExit("bench_e2e reports no layer metric " + name)
            samples = raw["layers"][name]
            out[name] = (percentile(samples, 0.5), metric["unit"], samples)
    else:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in END_TO_END:
                raise SystemExit("no definition for end-to-end metric " + name)
            samples, value = END_TO_END[name](raw)
            out[name] = (value, metric["unit"], samples)
    return out


def print_report(raw, metrics):
    print("workload %s  seed %d  window %.1fs  units %d  failed %d"
          % (raw["workload"], raw["seed"], raw["seconds"], raw["attempted"],
             raw["failed"]))
    print("%-32s %14s %-8s %5s %12s %12s %12s"
          % ("metric", "value", "unit", "n", "q1", "median", "q3"))
    rows = list(metrics.items())
    if not raw["trace"]:
        rows += [(name + " (not gated)", (percentile(raw["latency_ms"], q), "ms",
                                           raw["latency_ms"]))
                 for name, q in TAILS.items()]
    for name, (value, unit, samples) in rows:
        q1, q2, q3 = quartiles(samples)
        print("%-32s %14.6g %-8s %5d %12.6g %12.6g %12.6g"
              % (name, value, unit, len(samples), q1, q2, q3))
    if raw["self_ms"]:
        total = sum(raw["self_ms"].values())
        print("\nself time per traced unit (mean ms; span minus child spans)")
        for row, ms in sorted(raw["self_ms"].items(), key=lambda kv: -kv[1]):
            print("  %-28s %12.3f %6.1f %%" % (row, ms, 100.0 * ms / max(total, 1e-9)))
        print("  %-28s %12.3f   (unit wall %.3f ms)" % ("sum of rows", total, raw["unit_ms"]))
    for failure in raw["failures"]:
        print("check failed: " + failure)


def result_line(raw, metrics):
    return json.dumps({
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# Record and compare


def record(args, spec, binary):
    out = {"seconds": args.seconds, "runs": args.runs, "first_seed": args.seed,
           "failed": 0, "workloads": {}}
    for run in range(args.runs):
        for name in [w["name"] for w in spec["workloads"]]:
            started = time.monotonic()
            raw, _ = run_bench(binary, name, args.seed + run, args.seconds, False)
            values = out["workloads"].setdefault(name, {})
            for metric, (value, _, _) in metrics_of(raw, spec, False).items():
                values.setdefault(metric, []).append(value)
            out["failed"] += raw["failed"]
            log("run %d %s: %.1fs, %d failed" % (run + 1, name,
                                                 time.monotonic() - started, raw["failed"]))
    with open(args.record, "w") as f:
        json.dump(out, f, indent=1)
    return out


def label(metric, a, b):
    """better / same / worse / unresolved for B (change) against A (parent).

    - unresolved: either side's IQR is wider than the bound, unless every
      run of B beats every run of A (then better);
    - worse: B's median is worse than A's by more than the bound;
    - better: B wins at least 9 in 10 of the pairs and its median beats
      A's by more than A's IQR;
    - same: otherwise.

    Runs pair up by index (record uses the same seeds in the same order).
    """
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (mb - ma) / ma  # > 0 means B is worse
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if spread > metric["bound"]:
        dominates = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if dominates else "unresolved"), change, spread
    if change > metric["bound"]:
        return "worse", change, spread
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if wins >= 0.9 * min(len(a), len(b)) and -change * ma > qa3 - qa1:
        return "better", change, spread
    return "same", change, spread


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print("%-12s %-16s %12s %12s %9s %8s %7s  %s"
          % ("workload", "metric", "median A", "median B", "change", "spread",
             "bound", "label"))
    counts = {}
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in spec["end_to_end"]:
            va = a["workloads"][workload].get(metric["name"])
            vb = b["workloads"][workload].get(metric["name"])
            if not va or not vb:
                continue
            verdict, change, spread = label(metric, va, vb)
            counts[verdict] = counts.get(verdict, 0) + 1
            print("%-12s %-16s %12.6g %12.6g %+8.2f%% %7.2f%% %6.1f%%  %s"
                  % (workload, metric["name"], percentile(va, 0.5), percentile(vb, 0.5),
                     100 * change, 100 * spread, 100 * metric["bound"], verdict))
    print(" ".join("%s=%d" % kv for kv in sorted(counts.items())))


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of the router, DVI, ECO and service paths")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="OUT.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="build and run every workload at toy sizes")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    if args.smoke:
        return subprocess.run([binary, "--smoke"], check=False).returncode
    if args.record:
        return 0 if record(args, spec, binary)["failed"] == 0 else 1
    if not args.workload:
        parser.error("--workload, --record, --compare or --smoke is required")
    raw, code = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    metrics = metrics_of(raw, spec, args.trace)
    print_report(raw, metrics)
    print(result_line(raw, metrics))
    return 0 if code == 0 and raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
