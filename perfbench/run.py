#!/usr/bin/env python3
"""One command for the kgsearch benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the library and the kgbench driver
from source (Release, into $CARGO_TARGET_DIR or .bench_build), runs one
workload, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Details of the run go to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inproc-100k", "wire-mix-100k")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("kgsearch sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "kgbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "kgbench")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, notes):
    rows = raw["queries"]
    sgq = [r["ms"] for r in rows if not r["tbq"]]
    tbq_rows = [r for r in rows if r["tbq"]]
    tbq = [r["ms"] for r in tbq_rows]
    ingest = raw["ingest"]
    # Tails go to stderr only: on a shared VM they move with other tenants
    # far more than the medians do.
    for name, values in (("sgq", sgq), ("tbq", tbq),
                         ("live_read", ingest["read_ms"]),
                         ("ingest", ingest["ingest_ms"])):
        value, pct = stats.tail(values)
        notes.append("%s: n=%d, p%.2f=%.3f ms"
                     % (name, len(values), pct, value))
    return {
        "setup_s": metric(stats.median(raw["setup_s"]), "s"),
        "sgq_p50_ms": metric(stats.median(sgq), "ms"),
        "tbq_p50_ms": metric(stats.median(tbq), "ms"),
        "tbq_recall": metric(stats.mean_recall(tbq_rows), "share"),
        "tbq_in_bound_share": metric(
            stats.in_bound_share(tbq, raw["tbq_bound_ms"]), "share"),
        "qps": metric(len(rows) / sum(raw["round_wall_s"]), "1/s"),
        "ingest_p50_ms": metric(stats.median(ingest["ingest_ms"]), "ms"),
        "compact_ms": metric(stats.median(ingest["compact_ms"]), "ms"),
        "live_read_p50_ms": metric(stats.median(ingest["read_ms"]), "ms"),
    }


def per_layer(raw):
    spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
              "request": s[4], "counts": s[5:]} for s in raw["spans"]]
    by_name = {}
    for i, s in enumerate(spans):
        s["index"] = i
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: s["end"] - s["start"]

    def per_request(name, value=dur):
        totals = {}
        for s in by_name.get(name, []):
            totals[s["request"]] = totals.get(s["request"], 0) + value(s)
        return totals

    roots = {s["request"]: s for s in by_name["replay"]}
    astar = per_request("core.astar")
    ta_spans = by_name.get("core.ta", [])
    last_ta = {}
    for s in ta_spans:
        last_ta[s["request"]] = s
    astar_total = sum(dur(s) for s in by_name.get("core.astar", []))
    retry_total = sum(dur(s) for s in by_name.get("core.astar", [])
                      if s["counts"][0] >= 1)
    count = lambda i: (lambda s: s["counts"][i])
    searched = len(astar)
    m = {}

    rows = raw["queries"]
    wait = [r["ms"] - r["total_ms"] for r in rows]
    lags = raw["ingest"]["lag_ms"]
    tbq_rows = [r for r in rows if r["tbq"]]
    stopped = sum(1 for r in tbq_rows if r["stopped"]) / len(tbq_rows)
    service = raw["service"]
    ratio = lambda hits, misses: hits / (hits + misses) if hits + misses else 0.0
    m["server.wait_ms"] = metric(stats.median(wait), "ms")
    m["loadgen.lag_p99_ms"] = metric(stats.tail(lags)[0], "ms")
    m["api.decode_us"] = metric(
        stats.median([dur(s) for s in by_name["api.decode"]]) / 1e3, "us")
    m["api.encode_us"] = metric(
        stats.median([dur(s) for s in by_name["api.encode"]]) / 1e3, "us")
    m["api.facade_ms"] = metric(stats.median(raw["facade_ms"]), "ms")
    m["service.plan_cache_hit_rate"] = metric(
        ratio(service["plan_hits"], service["plan_misses"]), "share")
    m["service.matcher_cache_hit_rate"] = metric(
        ratio(service["matcher_hits"], service["matcher_misses"]), "share")
    m["core.decompose_us"] = metric(
        stats.median([dur(s) for s in by_name["core.decompose"]]) / 1e3, "us")
    m["core.resolve_us"] = metric(
        stats.median(list(per_request("core.resolve").values())) / 1e3, "us")
    m["core.weights_us"] = metric(
        stats.median(list(per_request("core.weights").values())) / 1e3, "us")
    m["core.astar_ms"] = metric(stats.median(list(astar.values())) / 1e6, "ms")
    m["core.astar_share"] = metric(
        astar_total / sum(dur(roots[r]) for r in astar), "share")
    m["core.astar_retry_share"] = metric(retry_total / astar_total, "share")
    for i, name in ((2, "expanded"), (3, "pushed"), (4, "materialized")):
        m["core.astar_" + name] = metric(
            sum(per_request("core.astar", count(i)).values()) / searched,
            "count")
    pops = sum(count(3)(s) for s in ta_spans)
    goals = sum(count(5)(s) for s in by_name["core.astar"])
    m["core.astar_goal_yield"] = metric(goals / pops, "share")
    m["core.ta_us"] = metric(
        stats.median(list(per_request("core.ta").values())) / 1e3, "us")
    m["core.ta_sorted_accesses"] = metric(
        sum(count(1)(s) for s in ta_spans) / searched, "count")
    m["core.ta_early_stop_share"] = metric(
        sum(1 for s in last_ta.values() if s["counts"][2]) / len(last_ta),
        "share")
    m["core.tbq_calibrate_us"] = metric(stats.median(
        [dur(s) for s in by_name["core.tbq_calibrate"]]) / 1e3, "us")
    m["core.tbq_stopped_share"] = metric(stopped, "share")
    m["kg.commit_us"] = metric(
        stats.median([dur(s) for s in by_name["kg.commit"]]) / 1e3, "us")
    m["kg.fold_ms"] = metric(
        stats.median([dur(s) for s in by_name["kg.fold"]]) / 1e6, "ms")
    m["kg.delta_nodes"] = metric(
        stats.median([s["counts"][0] for s in by_name["kg.fold"]]), "count")
    m["kg.delta_view_astar_ratio"] = metric(
        sum(dur(s) for s in by_name["kg.astar_delta"]) /
        sum(dur(s) for s in by_name["kg.astar_base"]), "ratio")
    serial = raw["serial_ms"]
    m["trace.replay_overhead_ms"] = metric(stats.median(
        [dur(s) / 1e6 - serial[s["request"]] for s in roots.values()]), "ms")
    m["trace.replay_self_us"] = metric(stats.median(
        [stats.self_time_ns(spans, s["index"]) for s in roots.values()]) / 1e3,
        "us")
    m["trace.replay_mismatches"] = metric(raw["replay_mismatches"], "count")
    return m


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    out = os.path.join(work_dir, "raw-%s-%d-%d.json" %
                       (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--out", out]
    try:
        subprocess.run(command, check=True, timeout=170)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("kgbench failed: %s" % e)
        return 1
    with open(out) as f:
        raw = json.load(f)

    notes = []
    metrics = per_layer(raw) if args.trace else end_to_end(raw, notes)
    for note in notes + ["phases (s): %s" % raw["phase_s"]] + raw["errors"]:
        log(note)
    failed = raw["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
