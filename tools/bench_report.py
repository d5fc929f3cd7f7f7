#!/usr/bin/env python3
"""Run the kernel microbenchmarks and write a normalized BENCH_kernels.json.

With --comm, instead runs the communication-engine cases of
bench/bench_comm_volume (BM_CommEngine: wire bytes + virtual clock across
sparsities, adaptive encoding on/off; BM_AlgorithmSweep: forced reduction
algorithms vs the cost tuner across density x group size) and writes
BENCH_comm.json:

  {
    "schema": "cubist-bench-comm/4",
    "shape": "fig7",          # 64^4; --smoke switches to 16^4
    "cost_model": { ... },    # LogP link/tuner params, from the binary
    "rows": [
      {"name": "BM_CommEngine/fig7/d25/enc", "density_pct": 25,
       "encode": 1, "logical_MB": ..., "wire_MB": ..., "sim_s": ...}, ...
    ],
    "summary": {              # encode-on vs encode-off, per density
      "25": {"wire_reduction_pct": ..., "clock_speedup": ...}, ...
    },
    "algorithm_sweep": [      # one row per sweep cell
      {"name": "BM_AlgorithmSweep/fig7/g8-flat/d50/auto",
       "point": "g8-flat", "density_pct": 50,
       "algorithm": "auto", "sim_s": ...,
       "chosen_groups": {"binomial": 0, "ring": 1}}, ...
    ],
    "auto_vs_binomial": {     # per (point, density): the tuner's contract
      "g8-flat/d50": {"binomial_sim_s": ..., "auto_sim_s": ...,
                      "auto_speedup": ..., "auto_chosen_groups": {...}}, ...
    }
  }

The auto-vs-binomial pairing is checked, not just recorded: the script
exits non-zero if the tuner's pick is slower than forced binomial at any
sweep point, so the CI smoke run enforces the tuner's "never worse than
the paper's schedule" contract on every push.

With --serving, instead runs the query-serving load generator
(bench/bench_serving: BM_Serving across clients x batch x skew x cache,
plus the BM_PartialServing budget x skew sweep) and writes
BENCH_serving.json:

  {
    "schema": "cubist-bench-serving/3",
    "shape": "fig",           # 32x32x16x16; --smoke switches to 8^3
    "repetitions": 5,         # runs per corner; 3 under --smoke
    "rows": [                 # one per corner: each field is the median
                              # of its runs; p50, p99 and qps also carry
                              # their min-max
      {"name": "BM_Serving/fig/c8/b256/zipf/cache", "clients": 8,
       "batch": 256, "zipf": 1, "cache": 1, "qps": ..., "hit_pct": ...,
       "p50_us": ..., "p99_us": ..., "p999_us": ...,
       "p50_us_range": [min, max], "p99_us_range": [...],
       "qps_range": [...],
       "classes": {"slice": {"count": ..., "p50_us": ...}, ...}}, ...
    ],
    "summary": {              # cache-on vs cache-off, per (clients, skew)
      "zipf/c8": {"hit_pct": ..., "p99_off_us": ..., "p99_on_us": ...,
                  "p99_speedup": ...,        # of the medians
                  "p99_speedup_range": [min_off / max_on,
                                        max_off / min_on],
                  "qps_speedup": ...}, ...
    },
    "partial_sweep": [        # one row per (budget pct x Zipf s) point
      {"name": "BM_PartialServing/part/b15/z25/...", "point": "b15/z25",
       "budget_pct": 15, "zipf_s": 2.5, "budget_bytes": ...,
       "full_cube_bytes": ..., "queries": ...,
       "static": {"views": ..., "materialized_bytes": ...,
                  "certified_bytes": ..., "mean_cells": ...,
                  "p99_cells": ..., "p99_us": ..., "direct_pct": ...,
                  "qps": ...},
       "adaptive": { same fields }}, ...
    ],
    "adaptive_vs_static": {   # per sweep point: the feedback loop's win
      "part/b15/z25": {"budget_pct": 15, "zipf_s": 2.5,
                       "mean_cells_ratio": ..., "p99_cells_ratio": ...,
                       "certified_le_budget": true}, ...
    }
  }

The partial sweep is checked, not just recorded: both policies' certified
bytes must sit within the byte budget, and the script exits non-zero if
the workload-adaptive selection scans more cells than the static
size-based one — on the mean or at the 99th percentile — at any sweep
point. Per-query cells_scanned is deterministic (fixed streams, cache
off), so the CI smoke run enforces the feedback loop's advantage exactly,
with no latency noise in the gate.

With --obs, instead runs the tracer-overhead benchmarks
(bench/bench_obs: unit span cost, the dense 3-target aggregation kernel
bare/disabled/enabled, and the Zipfian serving point disabled/enabled)
plus one cubist-trace workload, and writes BENCH_obs.json:

  {
    "schema": "cubist-bench-obs/1",
    "overhead_limit_pct": 1.0,
    "disabled_span_ns": ...,    # unit cost of one disabled Span + tags
    "kernel": {"bare_ns": ..., "disabled_ns": ..., "enabled_ns": ...,
               "spans_per_op": 1.0, "computed_bound_pct": ...,
               "measured_delta_pct": ...},
    "serving": {"disabled_ns": ..., "enabled_ns": ...,
                "spans_per_query": ..., "computed_bound_pct": ...,
                "measured_delta_pct": ...},
    "drift": {                  # from cubist-trace's metrics.json
      "cubist_drift_wire_vs_lemma1": {"samples": ..., "ratio": ...,
        "tolerance_min": ..., "tolerance_max": ..., "within": true}, ...
    }
  }

The overhead and drift numbers are checked, not just recorded: the script
exits non-zero if the computed disabled-tracer bound — unit span cost x
instrumentation density over measured work time — exceeds 1% on either
the kernel or the serving point, or if any drift gauge comes back
unpopulated or outside its tolerance window. The computed bound is the
gate because it is deterministic; the directly measured
disabled-vs-bare deltas ride along as evidence (they are noise at this
scale and can even come out negative).

In the default (kernel) mode it wraps bench/bench_kernels with
--benchmark_format=json, sweeps CUBIST_THREADS over a thread list, runs
each row 5 times (3 under --smoke), and normalizes the per-run JSON into
one stable document:

  {
    "schema": "cubist-bench-kernels/2",
    "nproc": <host cores>,
    "repetitions": 5,    # runs per row and thread count
    "runs": [            # one entry per CUBIST_THREADS setting
      {"threads": 1, "benchmarks": [
         {"name": "BM_DenseMultiway/3/3", "real_time_ms": ...,
          "real_time_ms_range": [min, max],
          "cpu_time_ms": ..., "items_per_second": ...}, ...]},
      ...
    ],
    "speedups": {        # multi-thread real-time speedup vs threads=1
      "BM_DenseMultiway/3/3": {"threads": 4, "speedup": 2.9,
                               "speedup_range": [2.5, 3.2]}, ...
    }
  }

Every time and rate is the median of the row's runs; a range is the
min-max of its runs, and a speedup's range pairs the slowest run of one
thread count with the fastest of the other.

The speedups block is how docs/PERFORMANCE.md's headline numbers are
regenerated; CI's bench-smoke job runs `--smoke` (tiny min-time; the
dense and sparse kernels and the generator only) to prove the harness and
the JSON stay well-formed and to show each row's thread scaling.

Usage:
  tools/bench_report.py                        # full sweep, 1 and nproc
  tools/bench_report.py --threads 1,2,4,8      # explicit sweep
  tools/bench_report.py --smoke                # CI smoke run
  tools/bench_report.py --binary build-release/bench/bench_kernels
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

DEFAULT_OUT = "BENCH_kernels.json"
DEFAULT_COMM_OUT = "BENCH_comm.json"
DEFAULT_SERVING_OUT = "BENCH_serving.json"
DEFAULT_OBS_OUT = "BENCH_obs.json"
DEFAULT_BINARY_DIRS = ("build-release", "build")
SCHEMA = "cubist-bench-kernels/2"
COMM_SCHEMA = "cubist-bench-comm/4"
SERVING_SCHEMA = "cubist-bench-serving/3"
# Runs per kernel row and thread count: one run cannot tell a row's
# thread scaling from the host's noise.
KERNEL_REPETITIONS = 5
KERNEL_SMOKE_REPETITIONS = 3
# Runs per BM_Serving corner: one run of a loaded corner lasts about
# 0.01 s, so a single one cannot tell the cache's effect from noise.
SERVING_REPETITIONS = 5
SERVING_SMOKE_REPETITIONS = 3
OBS_SCHEMA = "cubist-bench-obs/1"
QUERY_CLASSES = ("point", "slice", "dice", "rollup", "topk")

# The disabled-tracer contract from src/obs/trace.h: instrumentation left
# compiled into the hot paths must bound below this share of real work.
OBS_OVERHEAD_LIMIT_PCT = 1.0
DRIFT_GAUGES = (
    "cubist_drift_wire_vs_lemma1",
    "cubist_drift_reduce_clock_vs_sim",
    "cubist_drift_query_cost_vs_cells",
)

def find_binary(explicit, bench_name):
    if explicit:
        if not os.path.isfile(explicit):
            sys.exit(f"bench binary not found: {explicit}")
        return explicit
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for build in DEFAULT_BINARY_DIRS:
        candidate = os.path.join(root, build, "bench", bench_name)
        if os.path.isfile(candidate):
            return candidate
    sys.exit(
        f"{bench_name} binary not found under "
        + " or ".join(DEFAULT_BINARY_DIRS)
        + "; build it (cmake --preset release && "
        f"cmake --build --preset release --target {bench_name}) "
        "or pass --binary"
    )


def run_once(binary, threads, bench_filter, min_time, repetitions=1):
    env = dict(os.environ)
    env["CUBIST_THREADS"] = str(threads)
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    result = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=False
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(f"benchmark run failed (threads={threads})")
    # Some benches print figure tables after the JSON document; take the
    # leading JSON value only.
    document, _ = json.JSONDecoder().raw_decode(result.stdout)
    return document


def to_ms(value, unit):
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    return value * scale.get(unit, 1.0)


def normalize(raw):
    """One google-benchmark JSON document -> one normalized entry per
    benchmark: the median of its repeated runs, with the min-max of their
    real times."""
    runs_by_name = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs_by_name.setdefault(bench["name"], []).append(bench)
    entries = []
    for name, benches in runs_by_name.items():
        unit = benches[0].get("time_unit", "ns")
        real = [to_ms(b["real_time"], unit) for b in benches]
        entry = {
            "name": name,
            "real_time_ms": round(statistics.median(real), 6),
            "real_time_ms_range": [round(min(real), 6), round(max(real), 6)],
            "cpu_time_ms": round(statistics.median(
                [to_ms(b["cpu_time"], unit) for b in benches]), 6),
            "iterations": benches[0].get("iterations", 0),
        }
        if "items_per_second" in benches[0]:
            entry["items_per_second"] = round(statistics.median(
                [b["items_per_second"] for b in benches]), 1)
        entries.append(entry)
    return entries


def compute_speedups(runs):
    """Real-time speedup of the largest thread count vs threads=1, of the
    medians, with the range the runs' min-max allow."""
    by_threads = {run["threads"]: run for run in runs}
    if 1 not in by_threads or len(by_threads) < 2:
        return {}
    top = max(by_threads)
    if top == 1:
        return {}
    base = {b["name"]: b for b in by_threads[1]["benchmarks"]}
    speedups = {}
    for bench in by_threads[top]["benchmarks"]:
        one = base.get(bench["name"])
        if one is None or bench["real_time_ms"] <= 0:
            continue
        one_lo, one_hi = one["real_time_ms_range"]
        top_lo, top_hi = bench["real_time_ms_range"]
        speedups[bench["name"]] = {
            "threads": top,
            "speedup": round(one["real_time_ms"] / bench["real_time_ms"], 3),
            "speedup_range": [round(one_lo / top_hi, 3),
                              round(one_hi / top_lo, 3)],
        }
    return speedups


def cost_model_from_context(raw):
    """The cost model bench_comm_volume ran under, rebuilt from the
    "cost_model/<path>" keys it publishes in the JSON context block (a
    decimal point or exponent marks a real, anything else an integer)."""
    model = {}
    for key, text in raw.get("context", {}).items():
        path = key.split("/")
        if path[0] != "cost_model":
            continue
        node = model
        for part in path[1:-1]:
            node = node.setdefault(part, {})
        is_real = any(c in text for c in ".eE")
        node[path[-1]] = float(text) if is_real else int(text)
    if not model:
        sys.exit("bench_comm_volume published no cost_model context; "
                 "rebuild it")
    return model


def comm_report(args):
    """--comm mode: BM_CommEngine counters -> BENCH_comm.json."""
    shape = "smoke" if args.smoke else "fig7"
    binary = find_binary(args.binary, "bench_comm_volume")
    bench_filter = args.filter or f"BM_CommEngine/{shape}/"
    print(f"running {os.path.basename(binary)} "
          f"({shape} shape, filter {bench_filter}) ...")
    raw = run_once(binary, os.cpu_count() or 1, bench_filter, 0.01)

    rows = []
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rows.append(
            {
                "name": bench["name"],
                "density_pct": round(bench.get("density_pct", 0.0), 3),
                "encode": int(bench.get("encode", 0)),
                "logical_MB": round(bench.get("logical_MB", 0.0), 6),
                "wire_MB": round(bench.get("wire_MB", 0.0), 6),
                "sim_s": round(bench.get("sim_s", 0.0), 6),
            }
        )
    if not rows:
        sys.exit("no BM_CommEngine rows produced; wrong filter or binary?")

    summary = {}
    by_density = {}
    for row in rows:
        by_density.setdefault(row["density_pct"], {})[row["encode"]] = row
    for density, pair in sorted(by_density.items()):
        if 0 not in pair or 1 not in pair:
            continue
        raw_row, enc_row = pair[0], pair[1]
        entry = {}
        if raw_row["wire_MB"] > 0:
            entry["wire_reduction_pct"] = round(
                100.0 * (1.0 - enc_row["wire_MB"] / raw_row["wire_MB"]), 2
            )
        if enc_row["sim_s"] > 0:
            entry["clock_speedup"] = round(
                raw_row["sim_s"] / enc_row["sim_s"], 4
            )
        summary[f"{density:g}"] = entry

    sweep_rows, auto_vs_binomial = ([], {})
    if not args.filter:
        sweep_rows, auto_vs_binomial = comm_algorithm_sweep(binary, shape)

    report = {
        "schema": COMM_SCHEMA,
        "generated_by": "tools/bench_report.py --comm",
        "smoke": args.smoke,
        "shape": shape,
        "cost_model": cost_model_from_context(raw),
        "rows": rows,
        "summary": summary,
        "algorithm_sweep": sweep_rows,
        "auto_vs_binomial": auto_vs_binomial,
    }
    out = args.out if args.out != DEFAULT_OUT else DEFAULT_COMM_OUT
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {out} ({len(rows)} rows, {len(summary)} density pairs, "
          f"{len(sweep_rows)} sweep cells)")
    return 0


def comm_algorithm_sweep(binary, shape):
    """Runs BM_AlgorithmSweep and pairs the tuner against forced binomial.

    Returns (sweep_rows, auto_vs_binomial). Exits non-zero if kAuto's
    simulated makespan exceeds forced binomial's at any sweep point — that
    would mean the cost tuner broke its never-worse contract.
    """
    sweep_filter = f"BM_AlgorithmSweep/{shape}/"
    print(f"running {os.path.basename(binary)} "
          f"(algorithm sweep, filter {sweep_filter}) ...")
    raw = run_once(binary, os.cpu_count() or 1, sweep_filter, 0.01)

    sweep_rows = []
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # BM_AlgorithmSweep/<shape>/<point>/d<pct>/<algorithm>
        parts = bench["name"].split("/")
        if len(parts) < 5:
            continue
        sweep_rows.append(
            {
                "name": bench["name"],
                "point": parts[2],
                "density_pct": round(bench.get("density_pct", 0.0), 3),
                "algorithm": parts[4],
                "logical_MB": round(bench.get("logical_MB", 0.0), 6),
                "wire_MB": round(bench.get("wire_MB", 0.0), 6),
                "sim_s": round(bench.get("sim_s", 0.0), 6),
                # One pick per (view, axis group) reduction.
                "chosen_groups": {
                    "binomial": int(bench.get("groups_binomial", 0)),
                    "ring": int(bench.get("groups_ring", 0)),
                },
            }
        )
    if not sweep_rows:
        sys.exit("no BM_AlgorithmSweep rows produced; wrong binary?")

    auto_vs_binomial = {}
    violations = []
    by_cell = {}
    for row in sweep_rows:
        cell = (row["point"], row["density_pct"])
        by_cell.setdefault(cell, {})[row["algorithm"]] = row
    for (point, density), algos in sorted(by_cell.items()):
        if "binomial" not in algos or "auto" not in algos:
            continue
        binomial, auto = algos["binomial"], algos["auto"]
        entry = {
            "binomial_sim_s": binomial["sim_s"],
            "auto_sim_s": auto["sim_s"],
            "auto_chosen_groups": auto["chosen_groups"],
        }
        if "ring" in algos:
            entry["ring_sim_s"] = algos["ring"]["sim_s"]
        if auto["sim_s"] > 0:
            entry["auto_speedup"] = round(
                binomial["sim_s"] / auto["sim_s"], 4
            )
        auto_vs_binomial[f"{point}/d{density:g}"] = entry
        # Exact-equality tolerance only: when the tuner leaves binomial in
        # place the two runs execute the identical schedule, so the clocks
        # match bit for bit; a switched schedule must not be slower.
        if auto["sim_s"] > binomial["sim_s"] * (1.0 + 1e-9):
            violations.append(
                f"{point}/d{density:g}: auto {auto['sim_s']}s > "
                f"binomial {binomial['sim_s']}s"
            )
    for violation in violations:
        sys.stderr.write(f"tuner contract violated: {violation}\n")
    if violations:
        sys.exit("cost tuner picked schedules slower than forced binomial")
    return sweep_rows, auto_vs_binomial


def serving_row(runs):
    """The repeated runs of one BM_Serving corner -> one row: every field
    the median of its runs, with the min-max of p50, p99 and qps."""
    def mid(key, digits=3):
        return round(statistics.median([bench.get(key, 0.0) for bench in runs]),
                     digits)

    def spread(key, digits=3):
        values = [bench.get(key, 0.0) for bench in runs]
        return [round(min(values), digits), round(max(values), digits)]

    first = runs[0]
    row = {
        "name": first["name"],
        "clients": int(first.get("clients", 0)),
        "batch": int(first.get("batch", 0)),
        "zipf": int(first.get("zipf", 0)),
        "cache": int(first.get("cache", 0)),
        "served": int(mid("served", 0)),
        "qps": mid("qps", 1),
        "hit_pct": mid("hit_pct", 2),
        "cache_bytes_peak": int(mid("cache_bytes_peak", 0)),
        "p50_us": mid("p50_us"),
        "p99_us": mid("p99_us"),
        "p999_us": mid("p999_us"),
        "p50_us_range": spread("p50_us"),
        "p99_us_range": spread("p99_us"),
        "qps_range": spread("qps", 1),
        "sketch_KB": mid("sketch_KB", 2),
        "sketch_bound_KB": mid("sketch_bound_KB", 2),
    }
    classes = {}
    for cls in QUERY_CLASSES:
        if f"n_{cls}" not in first:
            continue
        classes[cls] = {
            "count": int(mid(f"n_{cls}", 0)),
            "p50_us": mid(f"p50_{cls}_us"),
            "p99_us": mid(f"p99_{cls}_us"),
            "p999_us": mid(f"p999_{cls}_us"),
        }
    row["classes"] = classes
    return row


def serving_report(args):
    """--serving mode: BM_Serving counters -> BENCH_serving.json."""
    shape = "smoke" if args.smoke else "fig"
    binary = find_binary(args.binary, "bench_serving")
    bench_filter = args.filter or f"BM_Serving/{shape}/"
    repetitions = (SERVING_SMOKE_REPETITIONS if args.smoke
                   else SERVING_REPETITIONS)
    print(f"running {os.path.basename(binary)} "
          f"({shape} shape, filter {bench_filter}, "
          f"{repetitions} runs per corner) ...")
    raw = run_once(binary, os.cpu_count() or 1, bench_filter, 0.01,
                   repetitions)

    runs_by_name = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs_by_name.setdefault(bench["name"], []).append(bench)
    rows = [serving_row(runs) for runs in runs_by_name.values()]
    if not rows:
        sys.exit("no BM_Serving rows produced; wrong filter or binary?")

    # Pair cache-on vs cache-off per (skew, clients, batch) corner.
    summary = {}
    by_corner = {}
    for row in rows:
        corner = (row["zipf"], row["clients"], row["batch"])
        by_corner.setdefault(corner, {})[row["cache"]] = row
    for (zipf, clients, batch), pair in sorted(by_corner.items()):
        if 0 not in pair or 1 not in pair:
            continue
        off_row, on_row = pair[0], pair[1]
        key = f"{'zipf' if zipf else 'uniform'}/c{clients}/b{batch}"
        entry = {
            "hit_pct": on_row["hit_pct"],
            "p99_off_us": off_row["p99_us"],
            "p99_on_us": on_row["p99_us"],
        }
        off_lo, off_hi = off_row["p99_us_range"]
        on_lo, on_hi = on_row["p99_us_range"]
        if on_lo > 0:
            entry["p99_speedup"] = round(
                off_row["p99_us"] / on_row["p99_us"], 3
            )
            entry["p99_speedup_range"] = [round(off_lo / on_hi, 3),
                                          round(off_hi / on_lo, 3)]
        if off_row["qps"] > 0:
            entry["qps_speedup"] = round(on_row["qps"] / off_row["qps"], 3)
        summary[key] = entry

    partial_rows, adaptive_vs_static = ([], {})
    if not args.filter:
        partial_rows, adaptive_vs_static = serving_partial_sweep(
            binary, args.smoke
        )

    report = {
        "schema": SERVING_SCHEMA,
        "generated_by": "tools/bench_report.py --serving",
        "smoke": args.smoke,
        "shape": shape,
        "repetitions": repetitions,
        "rows": rows,
        "summary": summary,
        "partial_sweep": partial_rows,
        "adaptive_vs_static": adaptive_vs_static,
    }
    out = args.out if args.out != DEFAULT_OUT else DEFAULT_SERVING_OUT
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {out} ({len(rows)} rows, "
          f"{len(summary)} cache-on/off pairs, "
          f"{len(partial_rows)} partial sweep points)")
    return 0


def serving_partial_sweep(binary, smoke):
    """Runs BM_PartialServing and pairs adaptive against static selection.

    Returns (partial_rows, adaptive_vs_static). Exits non-zero if the
    workload-adaptive selection scans more cells than the static
    size-based one (mean or p99) at any equal-budget sweep point, or if
    either policy's certified bytes exceed the budget. Cells counts are
    stream-deterministic (cache off, fixed seeds), so the comparison is
    exact — no tolerance needed.
    """
    pshape = "psmoke" if smoke else "part"
    sweep_filter = f"BM_PartialServing/{pshape}/"
    print(f"running {os.path.basename(binary)} "
          f"(partial-materialization sweep, filter {sweep_filter}) ...")
    raw = run_once(binary, os.cpu_count() or 1, sweep_filter, 0.01)

    policy_fields = (
        ("views", "views", int),
        ("materialized_bytes", "mat_bytes", int),
        ("certified_bytes", "certified_bytes", int),
        ("mean_cells", "mean_cells", lambda v: round(v, 3)),
        ("p99_cells", "p99_cells", int),
        ("p99_us", "p99_us", lambda v: round(v, 3)),
        ("direct_pct", "direct_pct", lambda v: round(v, 2)),
        ("qps", "qps", lambda v: round(v, 1)),
    )
    partial_rows = []
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # BM_PartialServing/<shape>/b<pct>/z<10*s>[/...suffixes]
        parts = bench["name"].split("/")
        if len(parts) < 4:
            continue
        row = {
            "name": bench["name"],
            "point": f"{parts[2]}/{parts[3]}",
            "budget_pct": int(bench.get("budget_pct", 0)),
            "zipf_s": round(bench.get("zipf_s", 0.0), 2),
            "budget_bytes": int(bench.get("budget_bytes", 0)),
            "full_cube_bytes": int(bench.get("full_bytes", 0)),
            "queries": int(bench.get("queries", 0)),
        }
        for policy in ("static", "adaptive"):
            row[policy] = {
                out_key: conv(bench.get(f"{policy}_{counter}", 0))
                for out_key, counter, conv in policy_fields
            }
        partial_rows.append(row)
    if not partial_rows:
        sys.exit("no BM_PartialServing rows produced; wrong binary?")

    adaptive_vs_static = {}
    violations = []
    for row in sorted(partial_rows, key=lambda r: r["point"]):
        static, adaptive = row["static"], row["adaptive"]
        key = f"{pshape}/{row['point']}"
        certified_ok = (
            static["certified_bytes"] <= row["budget_bytes"]
            and adaptive["certified_bytes"] <= row["budget_bytes"]
        )
        entry = {
            "budget_pct": row["budget_pct"],
            "zipf_s": row["zipf_s"],
            "certified_le_budget": certified_ok,
        }
        if static["mean_cells"] > 0:
            entry["mean_cells_ratio"] = round(
                adaptive["mean_cells"] / static["mean_cells"], 4
            )
        if static["p99_cells"] > 0:
            entry["p99_cells_ratio"] = round(
                adaptive["p99_cells"] / static["p99_cells"], 4
            )
        adaptive_vs_static[key] = entry
        if not certified_ok:
            violations.append(
                f"{key}: certified bytes exceed the "
                f"{row['budget_bytes']}-byte budget"
            )
        if adaptive["mean_cells"] > static["mean_cells"]:
            violations.append(
                f"{key}: adaptive mean {adaptive['mean_cells']} cells > "
                f"static {static['mean_cells']}"
            )
        if adaptive["p99_cells"] > static["p99_cells"]:
            violations.append(
                f"{key}: adaptive p99 {adaptive['p99_cells']} cells > "
                f"static {static['p99_cells']}"
            )
    for violation in violations:
        sys.stderr.write(f"partial-serving contract violated: {violation}\n")
    if violations:
        sys.exit(
            "workload-adaptive selection lost to static size-based "
            "selection at equal budget"
        )
    return partial_rows, adaptive_vs_static


def find_tool(name):
    """Like find_binary, but for executables under <build>/tools/."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for build in DEFAULT_BINARY_DIRS:
        candidate = os.path.join(root, build, "tools", name)
        if os.path.isfile(candidate):
            return candidate
    sys.exit(
        f"{name} binary not found under "
        + " or ".join(DEFAULT_BINARY_DIRS)
        + f"; build it (cmake --build build --target {name})"
    )


def time_ns(bench):
    """One google-benchmark entry's real time, in nanoseconds."""
    return to_ms(bench["real_time"], bench.get("time_unit", "ns")) * 1e6


def obs_report(args):
    """--obs mode: bench_obs + cubist-trace -> BENCH_obs.json."""
    binary = find_binary(args.binary, "bench_obs")
    min_time = 0.02 if args.smoke else args.min_time
    print(f"running {os.path.basename(binary)} "
          f"(tracer overhead points, min_time {min_time}s) ...")
    raw = run_once(binary, 1, args.filter or "", min_time)

    span_ns = None
    kernel_modes = {}
    serving_modes = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        if name.startswith("BM_DisabledSpanNs"):
            span_ns = time_ns(bench)
        elif name.startswith("BM_DenseAggTrace/"):
            kernel_modes[int(bench.get("mode", -1))] = bench
        elif name.startswith("BM_ServingZipfTrace/"):
            serving_modes[int(bench.get("enabled", -1))] = bench
    if span_ns is None or {0, 1, 2} - set(kernel_modes) or \
            {0, 1} - set(serving_modes):
        sys.exit("bench_obs did not produce all overhead points; "
                 "wrong filter or binary?")

    violations = []

    def overhead_point(label, work_ns, spans_per_op, disabled_ns, enabled_ns):
        """Computed disabled-tracer bound for one instrumented point."""
        bound_pct = 100.0 * span_ns * spans_per_op / work_ns
        if bound_pct > OBS_OVERHEAD_LIMIT_PCT:
            violations.append(
                f"{label}: computed disabled-tracer bound {bound_pct:.3f}% "
                f"exceeds {OBS_OVERHEAD_LIMIT_PCT}% "
                f"({span_ns:.1f} ns x {spans_per_op:g} spans over "
                f"{work_ns:.0f} ns of work)"
            )
        return {
            "spans_per_op": round(spans_per_op, 4),
            "computed_bound_pct": round(bound_pct, 4),
            "measured_delta_pct": round(
                100.0 * (disabled_ns - work_ns) / work_ns, 2
            ),
            "enabled_delta_pct": round(
                100.0 * (enabled_ns - work_ns) / work_ns, 2
            ),
        }

    kernel = {
        "bare_ns": round(time_ns(kernel_modes[0]), 1),
        "disabled_ns": round(time_ns(kernel_modes[1]), 1),
        "enabled_ns": round(time_ns(kernel_modes[2]), 1),
    }
    kernel.update(overhead_point(
        "dense kernel", time_ns(kernel_modes[0]),
        kernel_modes[1].get("spans_per_op", 1.0),
        time_ns(kernel_modes[1]), time_ns(kernel_modes[2]),
    ))
    serving = {
        "disabled_ns": round(time_ns(serving_modes[0]), 1),
        "enabled_ns": round(time_ns(serving_modes[1]), 1),
    }
    # The serving instrumentation has no "bare" mode — it is compiled in
    # permanently — so the disabled run IS the work baseline.
    serving.update(overhead_point(
        "zipf serving", time_ns(serving_modes[0]),
        serving_modes[1].get("spans_per_query", 1.0),
        time_ns(serving_modes[0]), time_ns(serving_modes[1]),
    ))
    del serving["measured_delta_pct"]
    serving["spans_per_query"] = serving.pop("spans_per_op")

    drift, trace_summary = obs_trace_run(args, violations)

    report = {
        "schema": OBS_SCHEMA,
        "generated_by": "tools/bench_report.py --obs",
        "smoke": args.smoke,
        "overhead_limit_pct": OBS_OVERHEAD_LIMIT_PCT,
        "disabled_span_ns": round(span_ns, 2),
        "kernel": kernel,
        "serving": serving,
        "trace": trace_summary,
        "drift": drift,
    }
    out = args.out if args.out != DEFAULT_OUT else DEFAULT_OBS_OUT
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {out} (span {span_ns:.1f} ns, kernel bound "
          f"{kernel['computed_bound_pct']}%, serving bound "
          f"{serving['computed_bound_pct']}%, {len(drift)} drift gauges)")
    for violation in violations:
        sys.stderr.write(f"observability contract violated: {violation}\n")
    if violations:
        sys.exit("tracer overhead or drift certification gate failed")
    return 0


def obs_trace_run(args, violations):
    """Runs one cubist-trace workload; returns (drift gauges, summary).

    Appends to `violations` if the tool itself fails its certification
    exit code, if the timeline is not valid Chrome trace JSON, or if any
    of the three drift gauges is unpopulated or out of tolerance.
    """
    tool = find_tool("cubist-trace")
    with tempfile.TemporaryDirectory(prefix="cubist-obs-") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        metrics_path = os.path.join(tmp, "metrics.json")
        prom_path = os.path.join(tmp, "metrics.prom")
        cmd = [tool, f"--trace={trace_path}", f"--metrics={metrics_path}",
               f"--prom={prom_path}"]
        if args.smoke:
            cmd.append("--smoke")
        print(f"running {os.path.basename(tool)} "
              f"({'smoke' if args.smoke else 'default'} workload) ...")
        result = subprocess.run(cmd, capture_output=True, text=True,
                                check=False)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.stderr.write(result.stderr)
            violations.append(
                f"cubist-trace exited {result.returncode} "
                "(drift certification failed inside the tool)"
            )
            return {}, {}

        with open(trace_path, encoding="utf-8") as f:
            timeline = json.load(f)
        events = timeline.get("traceEvents", [])
        if not events:
            violations.append("trace.json has no traceEvents")
        categories = sorted({e["cat"] for e in events if "cat" in e})
        trace_summary = {
            "events": len(events),
            "categories": categories,
        }
        for expected in ("build", "comm", "serving"):
            if expected not in categories:
                violations.append(
                    f"trace.json timeline is missing the '{expected}' "
                    "category — the workload did not span build -> "
                    "reduce -> serving"
                )

        with open(metrics_path, encoding="utf-8") as f:
            snapshot = json.load(f)
        drift = {}
        for metric in snapshot.get("metrics", []):
            if metric.get("kind") != "drift":
                continue
            drift[metric["name"]] = {
                "samples": metric["samples"],
                "ratio": round(metric["ratio"], 6),
                "tolerance_min": metric["tolerance_min"],
                "tolerance_max": metric["tolerance_max"],
                "within": metric["within"],
            }
        for name in DRIFT_GAUGES:
            gauge = drift.get(name)
            if gauge is None or gauge["samples"] == 0:
                violations.append(f"drift gauge {name} is unpopulated")
            elif not gauge["within"]:
                violations.append(
                    f"drift gauge {name} ratio {gauge['ratio']} outside "
                    f"[{gauge['tolerance_min']}, {gauge['tolerance_max']}]"
                )
        return drift, trace_summary


def parse_threads(text):
    threads = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = int(piece)
        if value < 1:
            sys.exit(f"thread counts must be >= 1, got {value}")
        if value not in threads:
            threads.append(value)
    if not threads:
        sys.exit("empty thread list")
    return threads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="bench_kernels binary path")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--threads",
        help="comma-separated CUBIST_THREADS sweep (default: 1,<nproc>)",
    )
    parser.add_argument(
        "--filter", default="", help="--benchmark_filter regex passthrough"
    )
    parser.add_argument(
        "--min-time", type=float, default=0.5, help="per-case min seconds"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: scan kernels and generator, tiny min-time, JSON",
    )
    parser.add_argument(
        "--comm",
        action="store_true",
        help="communication-engine mode: run bench_comm_volume's "
        "BM_CommEngine cases and write BENCH_comm.json",
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help="serving-engine mode: run bench_serving's BM_Serving cases "
        "and write BENCH_serving.json",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="observability mode: run bench_obs's tracer-overhead points "
        "plus one cubist-trace workload and write BENCH_obs.json; fails "
        "on overhead-bound or drift-tolerance violations",
    )
    args = parser.parse_args()

    if args.comm + args.serving + args.obs > 1:
        sys.exit("--comm, --serving and --obs are mutually exclusive")
    if args.comm:
        return comm_report(args)
    if args.serving:
        return serving_report(args)
    if args.obs:
        return obs_report(args)

    nproc = os.cpu_count() or 1
    if args.threads:
        threads_list = parse_threads(args.threads)
    else:
        threads_list = [1] if nproc == 1 else [1, nproc]

    bench_filter = args.filter
    min_time = args.min_time
    repetitions = KERNEL_REPETITIONS
    if args.smoke:
        bench_filter = (bench_filter or
                        "BM_DenseMultiway|BM_SparseMultiway|BM_Generator")
        min_time = 0.01
        repetitions = KERNEL_SMOKE_REPETITIONS

    binary = find_binary(args.binary, "bench_kernels")
    runs = []
    for threads in threads_list:
        print(f"running {os.path.basename(binary)} with "
              f"CUBIST_THREADS={threads}, {repetitions} runs per row ...")
        raw = run_once(binary, threads, bench_filter, min_time, repetitions)
        runs.append({"threads": threads, "benchmarks": normalize(raw)})

    report = {
        "schema": SCHEMA,
        "generated_by": "tools/bench_report.py",
        "smoke": args.smoke,
        "nproc": nproc,
        "repetitions": repetitions,
        "runs": runs,
        "speedups": compute_speedups(runs),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.out} "
          f"({sum(len(r['benchmarks']) for r in runs)} benchmark entries, "
          f"{len(report['speedups'])} speedups)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
