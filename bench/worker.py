"""The timed process: one client sending requests to nctori.cli.main, closed loop.

Usage: python3 worker.py JOB.json

The job names a file of argv lists (one JSON list a line, read one at a time
so the request list does not count towards peak RSS), the path of nctori's
sources and, for a traced pass, where to write the spans.  The worker sends
every request in the file once, in order.  Only argv lists and matrix files
reach this process; expected answers stay with the caller.

The process imports nctori itself, so its caches start cold.  For each
request it prints one JSON line (index, exit code, latency, captured stdout,
and the index of the last calibration chunk run before it).  Between
requests, once per CALIBRATE_EVERY_S of request time, it times a fixed chunk
of pure-Python arithmetic (``calibrate``), so that the caller can tell a
slow request from a slow spell of the host.  After the loop it prints one
line with the loop's wall time, the chunk times and the peak RSS.
The peak is the kernel's VmHWM of this process's own address space;
``ru_maxrss`` would not do, because Linux carries the parent's peak into it
across fork and exec, so it would report the caller's memory instead of
nctori's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


CALIBRATE_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed chunk of interpreted integer arithmetic, the
    kind of work nctori's exact linear algebra does (about 4 ms on a 2-core
    Xeon)."""
    t0 = time.perf_counter()
    x = total = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) % 2147483648
        total += x // 7
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import nctori.cli

    tracer = None
    if job.get("spans_path"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cli_main = nctori.cli.main  # looked up after tracing may have wrapped it
    out = sys.stdout
    cal_s = [calibrate()]
    since_cal = 0.0
    with open(job["requests"], encoding="utf-8") as requests:
        start = time.perf_counter()
        for i, line in enumerate(requests):
            argv = json.loads(line)
            if tracer is not None:
                tracer.request = i
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv)
            except Exception:  # a crash is one failed request; keep serving
                code = None
                buf.write(traceback.format_exc())
            t1 = time.perf_counter()
            out.write(
                json.dumps({"i": i, "code": code, "s": t1 - t0, "c": len(cal_s) - 1, "out": buf.getvalue()}) + "\n"
            )
            since_cal += t1 - t0
            if since_cal >= CALIBRATE_EVERY_S:
                cal_s.append(calibrate())
                since_cal = 0.0
        wall = time.perf_counter() - start
    cal_s.append(calibrate())
    summary = {"wall_s": wall, "cal_s": cal_s, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        summary["caches"] = spans.cache_stats()
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
