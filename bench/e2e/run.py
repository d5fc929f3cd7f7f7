#!/usr/bin/env python3
"""cubist end-to-end benchmark: builds cubist_bench, runs it, checks it.

  python3 bench/e2e/run.py              every workload once, then the traced
                                        pass; writes bench/e2e/results.json
  python3 bench/e2e/run.py --smoke      tiny sizes: output, attribution and
                                        drop checks, no timing gates
  python3 bench/e2e/run.py --repeat 10 --seed 1 --out change.json [--append]
  python3 bench/e2e/run.py --compare parent.json change.json
  python3 bench/e2e/run.py --baseline   two sets of 5 runs -> baseline.json
  python3 bench/e2e/run.py --workload build-d25 --seed 7 --seconds 10 --trace 0
                                        one run; the last line of stdout is
                                        one JSON object with the metrics
                                        BENCHMARK.json lists

Each workload runs in its own process with CUBIST_THREADS=4. The command
exits non-zero when an operation failed, or when a traced run dropped a
trace record or left more than 5% of its wall time unattributed.
README.md defines every workload and metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_PATH = BENCH_DIR / "results.json"
BASELINE_PATH = BENCH_DIR / "baseline.json"

WORKLOADS = {
    "build-d25": "64x64x64x64, 25% dense, SUM, p=4",
    "build-d5": "64x64x64x64, 5% dense, SUM, p=4",
    "build-seq-max": "64x64x64x64, 25% dense, MAX, sequential",
    "serve-zipf": "64x64x64x64, 25% dense, full cube, 4 clients",
    "serve-partial-replan": "16x16x16x16x8, 25% dense, partial cube, "
                            "3 clients + 1 replanner",
}
BASELINE_SEED = 1
HOLDOUT_SEED = 9001
MAX_UNATTRIBUTED = 0.05
RUN_TIMEOUT_S = 175

# End-to-end metrics --compare gates beyond BENCHMARK.json's. Throughput
# and the latency quantiles drift across sets of runs by more than a bound
# BENCHMARK.json could hold (README.md, "Noise"); --compare judges them
# from alternating pairs and calls a spread wider than the bound
# unresolved. The rest hold on only some workloads. A bound of 0 means the
# value must repeat exactly for a seed.
COMPARE_GATED = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_us": ("us", "lower", 0.25),
    "op_p90_us": ("us", "lower", 0.25),
    "op_p99_us": ("us", "lower", 0.25),
    "replan_s.p50": ("s", "lower", 0.25),
    "build_virtual_s": ("virtual_s", "lower", 0.0),
    "build_wire_mb": ("MB", "lower", 0.0),
    "peak_live_mb": ("MB", "lower", 0.0),
    "failed_frac": ("ratio", "lower", 0.0),
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "io.generate_s": "setup_s on every workload",
    "io.input_nnz": "setup_s and op_p50_us on build-d25, build-d5",
    "io.extract_pct": "op_p50_us on build-d25, build-d5",
    "array.scan_pct": "op_p50_us on build-d25 (most), build-d5 (less); "
                      "nothing on serve-*",
    "array.cells_scanned": "op_p50_us on build-*",
    "array.updates": "op_p50_us on build-*",
    "array.peak_scratch_mb": "peak_rss_mb on build-d25, build-d5",
    "minimpi.reduce_pct": "op_p50_us and build_virtual_s on build-d5; "
                          "nothing on build-seq-max",
    "minimpi.wire_mb": "build_wire_mb and build_virtual_s on build-d5",
    "minimpi.wire_ratio": "build_wire_mb on build-d25, build-d5",
    "minimpi.messages": "build_virtual_s on build-d5",
    "minimpi.rank_skew": "op_p50_us on build-d5",
    "core.plan_pct": "op_p50_us on build-d25, build-d5",
    "core.spawn_join_pct": "op_p50_us on build-d5",
    "core.gather_pct": "op_p50_us on build-d5; setup_s on serve-zipf",
    "core.gather_mb": "op_p50_us on build-d5; setup_s on serve-zipf",
    "core.seq_build_pct": "op_p50_us on build-seq-max only",
    "core.parallel_efficiency": "op_p50_us on build-d25",
    "serving.compute_pct": "op_p50_us and ops_per_s on serve-zipf",
    "serving.cache_hit_rate": "op_p50_us and ops_per_s on serve-zipf; "
                              "nothing on serve-partial-replan",
    "serving.cache_evictions": "op_p90_us on serve-zipf",
    "serving.cells_per_query": "op_p90_us on serve-zipf, "
                               "op_p99_us on serve-partial-replan",
    "serving.route_direct_frac": "op_p99_us on serve-partial-replan",
    "serving.route_ancestor_frac": "op_p99_us on serve-partial-replan",
    "serving.route_input_frac": "op_p99_us and ops_per_s on "
                                "serve-partial-replan",
    "serving.replan_build_cells": "replan_s.p50 on serve-partial-replan",
    "serving.replan_materialized_mb": "replan_s.p50 on serve-partial-replan",
    "obs.trace_overhead_pct": "none: traced against untraced op_p50_us",
    "obs.dropped_records": "none: a traced run with drops fails",
    "bench.unattributed_frac": "none: a traced run above 5% fails",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_binary():
    """Configures the repository's CMake project under .bench_build, with
    cubist_bench.cmake hooked in, and builds cubist_bench."""
    if not (ROOT / "CMakeLists.txt").exists():
        sys.exit(f"run.py: no cubist CMake project at {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        hook = BENCH_DIR / "cubist_bench.cmake"
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                        f"-DCMAKE_PROJECT_cubist_INCLUDE={hook}"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                    "--target", "cubist_bench"],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "cubist_bench"


def run_workload(binary, workload, seed, seconds, traced, smoke=False):
    """One cubist_bench process; returns its parsed run record."""
    env = dict(os.environ, CUBIST_THREADS="4",
               CUBIST_TRACE="1" if traced else "0")
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"] + (["--smoke"] if smoke else [])
    started = time.time()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "traced": traced, "started": started,
           "wall_s": time.time() - started, "metrics": {}}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            run["metrics"][fields[1]] = {"value": float(fields[2]),
                                         "unit": fields[3]}
        elif len(fields) == 3 and fields[1] in ("attempted", "failed"):
            run[fields[1]] = int(fields[2])
        else:
            raise RuntimeError(f"unexpected output line: {line!r}")
    run["problems"] = problems(run)
    return run


def problems(run):
    """Why a run does not count as correct (empty when it does)."""
    found = []
    if run.get("attempted", 0) < 1 or "failed" not in run:
        found.append("no operation attempted")
    elif run["failed"] > 0:
        found.append(f"{run['failed']} of {run['attempted']} operations "
                     "failed")
    if run["traced"]:
        m = run["metrics"]
        dropped = m.get("obs.dropped_records", {"value": 1})["value"]
        unattributed = m.get("bench.unattributed_frac", {"value": 1})["value"]
        if dropped > 0:
            found.append(f"{dropped:.0f} trace records dropped")
        if unattributed > MAX_UNATTRIBUTED:
            found.append(f"{unattributed:.1%} of the wall time unattributed")
    return found


def contract_line(run, spec):
    """The final JSON line of a single-workload run."""
    listed = spec["per_layer"] if run["traced"] else spec["end_to_end"]
    metrics = {}
    for metric in listed:
        name = metric["name"]
        if name in run["metrics"]:
            value = run["metrics"][name]["value"]
        elif run["traced"]:
            # A layer the workload never calls, or core.parallel_efficiency
            # (measured on build-d25 only).
            value = 0.0
        else:
            raise RuntimeError(f"{run['workload']} did not report {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": not run["problems"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def print_run(run):
    for name, metric in run["metrics"].items():
        print(f"{run['workload']} {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    status = "; ".join(run["problems"]) or "ok"
    print(f"{run['workload']} {'traced' if run['traced'] else 'untraced'} "
          f"seed={run['seed']} attempted={run['attempted']} "
          f"failed={run['failed']} wall={run['wall_s']:.1f}s: {status}")


def write_runs(path, runs, append=False):
    if append and Path(path).exists():
        with open(path) as f:
            runs = json.load(f)["runs"] + runs
    with open(path, "w") as f:
        json.dump({"schema": "cubist-bench-e2e/1", "runs": runs}, f, indent=1)
        f.write("\n")


def run_all(binary, seeds, seconds, traced=False, smoke=False):
    """Every workload once per seed, round-robin over workloads so drift
    spreads evenly."""
    runs = []
    for seed in seeds:
        for workload in WORKLOADS:
            run = run_workload(binary, workload, seed, seconds, traced, smoke)
            print_run(run)
            runs.append(run)
    return runs


# ------------------------------------------------------------- comparing

def gated_metrics(spec):
    gated = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    gated.update(COMPARE_GATED)
    return gated


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def count_wins(parent, change, better):
    """Pairs in which the change reads better; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def judge(parent, change, better, bound):
    """Verdict on one metric from paired runs (pair i ran back to back).

    A gain needs at least 10 pairs, a win in 9 of 10, and medians further
    apart than the parent's interquartile range. A spread wider than the
    bound leaves the metric unresolved unless every change run beats every
    parent run; otherwise a median worse by more than the bound is a
    regression. A bound of 0 asks for identical values.
    """
    if bound == 0:
        return "identical" if parent == change else "changed"
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = min(len(parent), len(change))
    wins = count_wins(parent, change, better)
    gap = sign * (c_med - p_med)
    if pairs >= 10 and wins >= 0.9 * pairs and gap > p_q3 - p_q1:
        return "gain"
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound:
        return "better, unresolved" if every_run_better else "unresolved"
    if -gap > bound * abs(p_med):
        return "regression"
    return "no change"


def untraced_runs(doc, workload):
    runs = [r for r in doc["runs"]
            if r["workload"] == workload and not r["traced"]]
    return sorted(runs, key=lambda r: r["started"])


def compare(parent_doc, change_doc, spec):
    """Prints one row per workload and gated metric; returns the number
    of regressions."""
    gated = gated_metrics(spec)
    regressions = 0
    print(f"{'workload':22} {'metric':16} {'parent p50 [q1,q3]':>34} "
          f"{'change p50 [q1,q3]':>34} {'wins':>6} verdict")
    for workload in WORKLOADS:
        parent = untraced_runs(parent_doc, workload)
        change = untraced_runs(change_doc, workload)
        n = min(len(parent), len(change))
        if n == 0:
            continue
        parent, change = parent[:n], change[:n]
        if any(p["seed"] != c["seed"] for p, c in zip(parent, change)):
            log(f"{workload}: pairs ran with different seeds")
        for name, (_, better, bound) in gated.items():
            if not all(name in r["metrics"] for r in parent + change):
                continue
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            verdict = judge(pv, cv, better, bound)
            regressions += verdict in ("regression", "changed")
            wins = count_wins(pv, cv, better)
            cells = []
            for values in (pv, cv):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.6g} [{q1:.4g},{q3:.4g}]")
            print(f"{workload:22} {name:16} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>3}/{n:<2} {verdict}")
    return regressions


# ------------------------------------------------------------- baseline

def baseline(binary, seconds, spec):
    seeds = [BASELINE_SEED + k for k in range(5)]
    sets = [run_all(binary, seeds, seconds) for _ in range(2)]
    traced = run_all(binary, [BASELINE_SEED], seconds, traced=True)
    print("\nset 1 against set 2 of the same code:")
    disagreements = compare({"runs": sets[0]}, {"runs": sets[1]}, spec)
    gated = gated_metrics(spec)
    end_to_end = {}
    for name, (unit, better, bound) in gated.items():
        entry = {"unit": unit, "better": better, "bound": bound,
                 "spread": {}, "medians": {}}
        for workload in WORKLOADS:
            per_set = [[r["metrics"][name]["value"] for r in runs
                        if r["workload"] == workload and name in r["metrics"]]
                       for runs in sets]
            if all(per_set):
                entry["spread"][workload] = max(spread(v) for v in per_set)
                entry["medians"][workload] = [statistics.median(v)
                                              for v in per_set]
        end_to_end[name] = entry
    doc = {
        "schema": "cubist-bench-e2e-baseline/1",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seconds": seconds,
        "holdout_seed": HOLDOUT_SEED,
        "workloads": {w["name"]: {"why": w["why"], "size": WORKLOADS[w["name"]],
                                  "seeds": seeds}
                      for w in spec["workloads"]},
        "end_to_end": end_to_end,
        "per_layer": {m["name"]: {"unit": m["unit"],
                                  "layer": m["name"].split(".")[0],
                                  "moves": LAYER_MOVES[m["name"]]}
                      for m in spec["per_layer"]},
        "sets": sets,
        "traced": traced,
    }
    with open(BASELINE_PATH, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return disagreements


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--out", default=str(RESULTS_PATH))
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_JSON", "CHANGE_JSON"))
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--binary", help="use this cubist_bench; skip the build")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        return 1 if compare(docs[0], docs[1], spec) else 0

    binary = Path(args.binary) if args.binary else build_binary()
    seconds = args.seconds or (0.3 if args.smoke else spec["run_seconds"])

    if args.workload:
        run = run_workload(binary, args.workload, args.seed, seconds,
                           bool(args.trace), args.smoke)
        for problem in run["problems"]:
            log(f"{args.workload}: {problem}")
        print(json.dumps(contract_line(run, spec)))
        return 1 if run["problems"] else 0
    if args.baseline:
        return 1 if baseline(binary, seconds, spec) else 0

    if args.repeat:
        seeds = [args.seed + k for k in range(args.repeat)]
        runs = run_all(binary, seeds, seconds, smoke=args.smoke)
    else:
        runs = run_all(binary, [args.seed], seconds, smoke=args.smoke)
        runs += run_all(binary, [args.seed], seconds, True, args.smoke)
    if not args.smoke or args.out != str(RESULTS_PATH):
        write_runs(args.out, runs, args.append)
    bad = [r for r in runs if r["problems"]]
    for run in bad:
        log(f"{run['workload']}: {'; '.join(run['problems'])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
