"""nctori benchmark: one client, closed loop, through nctori.cli.main.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q bench/tests        # the benchmark's self-tests

Workloads (see gen.py for the exact mixes):

* verdicts       classify / classify-group queries, d log-uniform in [1, 128],
                 plus one request in a hundred with d in [256, 1024].  Loads
                 the subset-sum DP, realize and Matrix construction; never
                 reaches the compound oracle or the theta solve.
* analyze_small  analyze on block-form matrices (d 4-10) and unimodular
                 conjugates (d 4-8).  Every request runs the compound oracle.
* analyze_large  analyze on block form and conjugates with d 13-18, and on
                 infinite-order matrices that must exit 2.  Above d = 12 the
                 oracle is off: matrix powers, determinants and the theta solve.

Each run builds a fixed number of distinct requests from --seed in this
process (requests_for: about --seconds of work on a loaded 2-core Xeon), so
that a faster program answers the same requests, not more of them.  One fresh
worker process (worker.py) imports nctori from ./src with cold caches and
sends all of them, in order.  Every reply is checked here against answers
computed by reference.py.

The host this was built on runs the same code up to 60% slower for seconds
to minutes at a time.  The worker therefore times a fixed chunk of
pure-Python arithmetic between requests, and every time below is scaled to
the speed at which that chunk takes CALIBRATE_REF_S, by the chunks timed
around it (host_scale).  The
info line gives the host's speed during the run and the unscaled throughput.

--trace 0 reports the end-to-end metrics: requests_per_s (requests over the
sum of their latencies: the closed loop's throughput), latency_p50_ms and
latency_p90_ms, peak_rss_mb (the worker's peak resident set after all
requests) and setup_s (the median of SETUP_STARTS fresh interpreters, half
started before the worker and half after it, of the time until ``import
nctori.cli`` returns, each scaled by a chunk timed just before it).

--trace 1 sends the same requests in two fresh processes, untraced and then
with spans at every module boundary (spans.py).  It reports the per-layer
metrics and the tracing overhead (the traced pass's scaled time over the
untraced one's).

Errors are counted in "failed" and gate "correct"; the error rate is not a
metric because it is 0 whenever the program is right.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it carries information that is not a metric: the error rate,
the first failures, a sha256 of the replies, the host's speed and the
unscaled throughput.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import gen
import spans
from worker import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
WORK_ROOT = ".bench_work"

SETUP_STARTS = 32
# Requests per second when the benchmark was defined, on a 2-core Xeon during
# a slow spell of the host: a run of --seconds sends RATE * seconds requests.
RATE = {"verdicts": 140, "analyze_small": 9, "analyze_large": 2.9}
MIN_REQUESTS = 10
# Seconds that worker.calibrate takes on that Xeon when the host is fast: every
# time is reported as if the host ran at that speed (host_scale).
CALIBRATE_REF_S = 0.004
# A worker that takes longer fails the run, so that a run ends within 180 s.
WORKER_TIMEOUT_S = 75

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# per-layer metric -> (function span, field); a ratio field divides work by calls.
FUNCTION_METRICS = {
    "invariants.invariant_ranks.total_s": ("invariants.invariant_ranks", "total_s"),
    "invariants.realize.total_s": ("invariants.realize", "total_s"),
    "exactlin.Matrix.cells": ("exactlin.Matrix.__init__", "work"),
    "wfun.w_group.total_s": ("wfun.w_group", "total_s"),
    "ktheory.factor_k.total_s": ("ktheory.factor_k", "total_s"),
    "invariants.invariant_rank_oracle.total_s": ("invariants.invariant_rank_oracle", "total_s"),
    "invariants.invariant_rank_oracle.calls": ("invariants.invariant_rank_oracle", "calls"),
    "exactlin.compound.total_s": ("exactlin.compound", "total_s"),
    "exactlin.compound.minors": ("exactlin.compound", "work"),
    "exactlin.order.total_s": ("exactlin.order", "total_s"),
    "exactlin.matmul.calls": ("exactlin.Matrix.__matmul__", "calls"),
    "invariants.free_outside_origin.total_s": ("invariants.free_outside_origin", "total_s"),
    "exactlin.det.calls": ("exactlin.det", "calls"),
    "theta.invariant_space.total_s": ("theta.invariant_space", "total_s"),
    "exactlin.kernel_basis.total_s": ("exactlin.kernel_basis", "total_s"),
    "exactlin.kernel_basis.unknowns": ("exactlin.kernel_basis", "work"),
    "classify.recognize_blocks.hit_ratio": ("classify.recognize_blocks", "ratio"),
    "classify.analyze_action.s1_available_ratio": ("classify.analyze_action", "ratio"),
}


# The layers that should hold most of analyze_large's time (matrix powers and
# the theta solve); the traced run reports the share of time inside any of them.
SLOW_PATH = ["exactlin.order", "invariants.free_outside_origin", "theta.invariant_space"]


class BenchError(Exception):
    """The benchmark could not produce a result (exit code 1)."""


def host_scale(cal_s: list[float], index: int) -> float:
    """Factor that brings a time taken next to calibration chunk ``index`` to
    the reference speed: CALIBRATE_REF_S over the median of the chunks
    around it (about a quarter of a second of requests on either side)."""
    return CALIBRATE_REF_S / statistics.median(cal_s[max(0, index - 2) : index + 3])


def setup_samples(src: str, starts: int) -> tuple[list[float], list[float]]:
    """Wall times from starting a fresh interpreter until ``import nctori.cli``
    returns (CLOCK_MONOTONIC is shared by processes), and the calibration
    chunk timed just before each start."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import nctori.cli; "
        "print(time.monotonic())"
    )
    samples, cal_s = [], []
    for _ in range(starts):
        cal_s.append(calibrate())
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise BenchError(f"importing nctori.cli failed:\n{done.stderr}")
        samples.append(float(done.stdout) - t0)
    return samples, cal_s


def run_worker(workdir: str, tag: str, requests_path: str, traced: bool):
    """Run one worker process; returns (per-request records, summary or None)."""
    job = {
        "src": os.path.abspath(SRC),
        "requests": requests_path,
        "spans_path": os.path.join(workdir, f"{tag}.spans.json") if traced else None,
    }
    job_path = os.path.join(workdir, f"{tag}.job.json")
    out_path = os.path.join(workdir, f"{tag}.out.jsonl")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(out_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path], stdout=out
        )
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    records, summary = [], None
    with open(out_path, encoding="utf-8") as fh:
        for line in fh:
            try:
                item = json.loads(line)
            except json.JSONDecodeError:
                break  # torn last line of a killed worker
            if "i" in item:
                records.append(item)
            else:
                summary = item
    if proc.returncode != 0:
        summary = None
    return records, summary


def check_records(records, pool) -> list[str]:
    failures = []
    for rec in records:
        reason = check.check(pool[rec["i"]]["expect"], rec["code"], rec["out"])
        if reason is not None:
            failures.append(f"request {rec['i']} {pool[rec['i']]['argv']}: {reason}")
    return failures


def stdout_sha256(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec["out"].encode())
    return h.hexdigest()


def requests_for(workload: str, seconds: int) -> int:
    """The number of distinct requests in a run of ``seconds``."""
    return max(MIN_REQUESTS, round(RATE[workload] * seconds))


def scaled_latencies(records, summary) -> list[float]:
    """Each request's latency in seconds, at the reference speed."""
    return [rec["s"] * host_scale(summary["cal_s"], rec["c"]) for rec in records]


def end_to_end(records, summary, setup_s: float) -> dict[str, float]:
    latencies = scaled_latencies(records, summary)
    latencies_ms = [s * 1000.0 for s in latencies]
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(summary: dict, caches: dict, overhead_ratio: float):
    metrics: dict[str, tuple[float, str]] = {}
    for layer, self_s in summary["layers"].items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    funcs = summary["functions"]
    for name, (fn, field) in FUNCTION_METRICS.items():
        f = funcs.get(fn, {"calls": 0, "total_s": 0.0, "work": 0})
        if field == "ratio":
            metrics[name] = (f["work"] / f["calls"] if f["calls"] else 0.0, "ratio")
        elif field == "total_s":
            metrics[name] = (f["total_s"], "s")
        else:
            metrics[name] = (f[field], "count")
    for _, attr in spans.CACHES:
        c = caches.get(attr, {"hits": 0, "misses": 0})
        calls = c["hits"] + c["misses"]
        metrics[f"cache.{attr}.hit_ratio"] = (c["hits"] / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "nctori", "cli.py")):
        raise BenchError(f"no nctori sources under ./{SRC}; run from the root of a checkout")
    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pool = gen.WORKLOADS[workload](seed, requests_for(workload, seconds), workdir)
        requests_path = os.path.join(workdir, "requests.jsonl")
        with open(requests_path, "w", encoding="utf-8") as fh:
            for req in pool:
                fh.write(json.dumps(req["argv"]) + "\n")
        if trace:
            # the same requests in two fresh processes, untraced and traced
            passes = [run_worker(workdir, tag, requests_path, tag == "traced") for tag in ("plain", "traced")]
        else:
            setup, setup_cal = setup_samples(SRC, SETUP_STARTS // 2)
            passes = [run_worker(workdir, "plain", requests_path, False)]
            more, more_cal = setup_samples(SRC, SETUP_STARTS - SETUP_STARTS // 2)
            setup, setup_cal = setup + more, setup_cal + more_cal
        attempted = sum(len(records) for records, _ in passes)
        failures = [f for records, _ in passes for f in check_records(records, pool)]
        if any(summary is None or len(records) != len(pool) for records, summary in passes):
            raise BenchError(
                f"a worker died or did not answer all {len(pool)} requests within {WORKER_TIMEOUT_S} s; "
                f"failures: {failures[:5]}"
            )
        records, summary = passes[0]
        info = {
            "workload": workload,
            "seed": seed,
            "requests": len(pool),
            "error_rate": {"value": len(failures) / attempted, "unit": "ratio"},
            "first_failures": failures[:5],
            "stdout_sha256": stdout_sha256(records),
            "wall_s": summary["wall_s"],
            "host_speed": CALIBRATE_REF_S / statistics.median(summary["cal_s"]),
            "unscaled_requests_per_s": len(records) / sum(rec["s"] for rec in records),
        }
        if trace:
            traced_records, traced_summary = passes[1]
            with open(os.path.join(workdir, "traced.spans.json"), encoding="utf-8") as fh:
                recorded = json.load(fh)
            layers_summary = spans.summarize(recorded)
            overhead = sum(scaled_latencies(traced_records, traced_summary)) / sum(scaled_latencies(records, summary))
            values = per_layer(layers_summary, traced_summary["caches"], overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            traced_s = sum(layers_summary["layers"].values())
            info["traced_stdout_sha256"] = stdout_sha256(traced_records)
            info["order_free_theta_share"] = spans.covered_s(recorded, SLOW_PATH) / traced_s
            info["oracle_share"] = spans.covered_s(recorded, ["invariants.invariant_rank_oracle"]) / traced_s
        else:
            setup_s = statistics.median(t * host_scale(setup_cal, j) for j, t in enumerate(setup))
            values = end_to_end(records, summary, setup_s)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return {
            "info": info,
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
