#!/usr/bin/env python3
"""Host-performance benchmark of the HybridGraph engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (with the library targets of ../src) into
.bench_build/perfbench on first use, runs one workload in one hgbench
process, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the benchmark's
spans and the engine trace under .bench_build/perfbench/traces). --perturb
corrupts one checked value to show that the checks count it as failed. See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Metric names and units come from BENCHMARK.json, the one list of them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hgbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hybridgraph",
                                       "hybridgraph.h")):
        log("perfbench: library sources not found under %s/src" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    exe = os.path.join(BUILD, "hgbench")
    return exe if os.path.isfile(exe) else None


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(raw):
    s, sc = raw["samples"], raw["scalars"]
    if raw["workload"] == "stream-serve":
        fresh = stats.freshness(s["batch_due_s"], s["answer_s"],
                                s["answer_epoch"])
        fresh_ms = [f * 1e3 for f in fresh if f is not None]
        # The repeated GET is the freshness probe; it is timed per layer.
        q = s["serve.topk_us"]
    else:
        fresh_ms = s["fresh_ms"]
        q = s["query_us"]
    fresh_tail, fresh_p = stats.capped_percentile(fresh_ms, 90)
    query_tail, query_p = stats.capped_percentile(q, 90)
    if fresh_p != 90 or query_p != 90:
        log("fresh_ms_p90 reports p%g of %d samples, query_us_p90 p%g of %d:"
            " p90 needs %d samples beyond it, else the median is reported" % (
                fresh_p, len(fresh_ms), query_p, len(q), stats.MIN_BEYOND))
    values = {
        "job_s": statistics.median(s["job_s"]),
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": sc["peak_rss_mb"],
        "modeled_s": sc["modeled_s"],
        "io_mb": sc["io_mb"],
        "net_mb": sc["net_mb"],
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
        "fresh_ms_p50": stats.percentile(fresh_ms, 50),
        "fresh_ms_p90": fresh_tail,
        "query_us_p90": query_tail,
    }
    metrics = {m["name"]: metric(values[m["name"]], m["unit"])
               for m in SPEC["end_to_end"]}
    return metrics, {"fresh_ms": fresh_ms, "query_us": q, "job_s": s["job_s"],
                     "setup_s": s["setup_s"]}


def per_layer(raw):
    """Every per-layer metric; one a workload does not exercise reads 0."""
    s = raw["samples"]
    values = dict(raw["layer"])
    values["hybridgraph.load_s"] = statistics.median(s["load_s"])
    steps = s.get("hybridgraph.superstep_ms", [])
    if steps:
        values["hybridgraph.superstep_ms_p50"] = stats.percentile(steps, 50)
        values["hybridgraph.superstep_ms_max"] = max(steps)
    for name, key in (("graph.ingest_ms_p50", "graph.ingest_ms"),
                      ("serve.converge_ms_p50", "serve.converge_ms"),
                      ("serve.get_us_p50", "serve.get_us"),
                      ("serve.topk_us_p50", "serve.topk_us"),
                      ("serve.publish_compact_ms_p50",
                       "serve.publish_compact_ms")):
        if s.get(key):
            values[name] = stats.percentile(s[key], 50)
    if raw["workload"] == "stream-serve":
        values["serve.query_us_p99"] = stats.capped_percentile(
            s["query_us"], 99)[0]
        late = stats.lateness(s["batch_due_s"], s["batch_sent_s"])
        values["gen.late_ms_max"] = max(late) * 1e3 if late else 0.0
    engine_trace = raw["files"].get("engine_trace")
    if engine_trace:
        with open(engine_trace) as f:
            values["core.node_skew"] = stats.node_skew(
                json.load(f)["traceEvents"])
    spans_file = raw["files"].get("spans")
    if spans_file:
        with open(spans_file) as f:
            selft = stats.self_times(json.load(f))
        with open(spans_file.replace(".spans.json", ".self.json"), "w") as f:
            json.dump(selft, f, indent=1, sort_keys=True)
        for name, us in sorted(selft.items(), key=lambda kv: -kv[1])[:12]:
            log("self time %-36s %10.1f ms" % (name, us / 1e3))
    return {m["name"]: metric(values.get(m["name"], 0.0), m["unit"])
            for m in SPEC["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    runs = os.path.join(BUILD, "runs")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    out = os.path.join(runs, "%s-%d-%d.json" % (args.workload, args.seed,
                                                args.trace))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out, "--trace-dir", traces]
    if args.perturb:
        cmd.append("--perturb")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: hgbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    if rc != 0:
        log("perfbench: hgbench exited with %d" % rc)
        return 3
    with open(out) as f:
        raw = json.load(f)

    if args.trace:
        metrics = per_layer(raw)
    else:
        metrics, timings = end_to_end(raw)
        for name, samples in timings.items():
            sm = stats.summarize(samples)
            log("%-10s n=%-5d p50=%-12.6g p%s=%s" % (
                name, sm["n"], sm["p50"], sm["tail_p"], sm["tail"]))
    log("inputs: %s" % json.dumps(raw["inputs"], sort_keys=True))
    for why in raw["failures"]:
        log("FAILED: %s" % why)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
