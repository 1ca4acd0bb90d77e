"""The large-d probes and the cache report of CI's tier-1 workflow.

``python tests/probes.py`` runs every row of ``PROBES`` through the installed
``nctori`` script.  No benchmark workload goes above d = 18; these probes
reach d = 800:

- ``analyze --json`` on three dense conjugates built by ``bench/gen.py``
  ``conjugate`` (seed 7, entries up to 40): C101+C101+I10, I72+C79 and
  C307+C3;
- ``analyze --json`` on U B U^-1 for B = I72+C79 and a random upper
  unitriangular U with entries in {-1, 0, 1} (``upper_conjugate``, seed 7):
  upper Hessenberg, 73 seeds, answered;
- ``analyze --json`` on a dense upper Hessenberg d = 800 file with zero trace
  and tr A^2 = 0: the p_m recurrence past MAX_LIFT_WORK, exit 2;
- ``analyze --json`` on two d = 800 inputs that the p_m recurrence answers:
  the cyclic permutation companion(x^800 - 1) and the block form I400+C401;
- ``analyze --json`` on P^k B P^-k for B = C25+C9+C8+I6 (d = 36) and P a
  product of 3d random +-1 elementary matrices (seed 36), the only probes
  that take the certificate on Python ints: k = 300 (483-digit entries) is
  answered, k = 1000 (1,608 digits) is refused by MAX_CERTIFICATE_WORK
  (exit 2) after a few seconds;
- ``theta --json`` on k = 10, about 2.1-2.5 s, about 1.4 s of it in
  invariant_space's reduced_basis and about 0.7 s in is_nondegenerate; its
  stdout is 6,140,977 bytes;
- ``table --dmax 100 --nmax 2001``, the TABLE_MAX_VERDICTS grid of 200,000
  verdicts, in text (about 1.1-1.6 s, 9,841,202 bytes of stdout) and with
  ``--json`` (about 2.1-2.6 s, 50,041,411 bytes); each is printed a row at a
  time, so both peak at 16-18 MB, under a 64 MB bound;
- the JSON verdict of the group path on Z12xZ18xZ35xZ^2, and the cyclic
  path's JSON verdict ``classify 40 63 --json`` and large-d text verdict
  ``classify 1000 7``, which load no matrix module and peak at 13-15 MB,
  under a 32 MB bound.

Each row's exit code is compared with the one documented in its row (2 for
the Hessenberg file and k = 1000, 0 for every other probe), the sha256 of
its stdout with the pinned one where the row has one, and the child's peak
RSS with the row's bound where it has one.  Each child is started by
``LAUNCHER``, a ``python -S`` process that reads its ``ru_maxrss`` from
``os.wait4``, so the reading starts at the launcher's few MB, not at what
this script holds.
Every mismatch is printed, and the script exits 1 after the last row if
there was one.  ``tests/test_probes.py`` pins the sha256 of every input
file, so a change to a builder fails in tier-1 without running a probe.

``report_caches()`` runs the seed-1 requests of each benchmark workload,
built by ``bench/gen.py`` at the size of a 30 s run, through
``nctori.cli.main`` in this process; every cache that ``caches()`` finds is
cleared before each workload and its ``cache_info()`` printed after it.

``report_startup()`` prints the nctori modules that a ``classify``, an
``analyze`` and a ``theta`` request load, and the median wall time of fresh
``import nctori.cli`` starts that compile the sources.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import nctori  # noqa: E402
from gen import conjugate  # noqa: E402
from oracles import conjugate_in_place, random_ops  # noqa: E402
from reference import block_rows, block_sum  # noqa: E402

INPUT = "<input>"  # in a row's words: the path of the file its builder wrote


class Probe(NamedTuple):
    name: str
    words: tuple[str, ...]  # after ``nctori``
    build: Callable[[], list[list[int]]] | None  # the input matrix, or None
    code: int  # the documented exit code
    sha256: str | None = None  # of stdout, where it is pinned
    max_rss_mb: int | None = None  # the child's peak RSS, where it is bounded


def block_form(spec: str) -> list[list[int]]:
    return block_sum([block_rows(b) for b in spec.split("+")])


def upper_conjugate(rows, rng):
    d = len(rows)
    u = [[rng.choice((-1, 0, 1)) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    inverse = [[0] * d for _ in range(d)]
    for c in range(d):
        for i in range(d - 1, -1, -1):
            inverse[i][c] = int(i == c) - sum(u[i][k] * inverse[k][c] for k in range(i + 1, d))
    ub = [[sum(u[i][k] * rows[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[sum(ub[i][k] * inverse[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def hessenberg() -> list[list[int]]:
    rng = random.Random(800)
    return [[rng.randint(-9, 9) if j > i + 1 else int(j == i - 1) for j in range(800)] for i in range(800)]


def wide_conjugate(k: int) -> list[list[int]]:
    """P^k B P^-k for B = C25+C9+C8+I6 and P from 3d operations of seed 36."""
    rows = block_form("C25+C9+C8+I6")
    conjugate_in_place(rows, random_ops(random.Random(36), len(rows), 3 * len(rows), "unimodular"), k)
    return rows


PROBES = (
    *(Probe(spec, ("analyze", INPUT, "--json"), lambda spec=spec: conjugate(block_form(spec), random.Random(7), 40), 0)
      for spec in ("C101+C101+I10", "I72+C79", "C307+C3")),
    Probe("U I72+C79 U^-1", ("analyze", INPUT, "--json"),
          lambda: upper_conjugate(block_form("I72+C79"), random.Random(7)), 0),
    Probe("Hessenberg", ("analyze", INPUT, "--json"), hessenberg, 2),
    Probe("cyclic", ("analyze", INPUT, "--json"), lambda: [[int(j == (i - 1) % 800) for j in range(800)] for i in range(800)], 0),
    Probe("I400+C401", ("analyze", INPUT, "--json"), lambda: block_form("I400+C401"), 0),
    Probe("P^300 B P^-300", ("analyze", INPUT, "--json"), lambda: wide_conjugate(300), 0),
    Probe("P^1000 B P^-1000", ("analyze", INPUT, "--json"), lambda: wide_conjugate(1000), 2),
    Probe("P^10 B P^-10", ("theta", INPUT, "--json"), lambda: wide_conjugate(10), 0,
          "f2d6efe09b103ab4fc5a9d811b7ccfca48c1248ee6a5a7797aae0793a5f17135"),
    Probe("--dmax 100 --nmax 2001", ("table", "--dmax", "100", "--nmax", "2001"), None, 0,
          "0b353ccbc48236902a997efc2bf51656a8c634db4abffa8d81a1c7aa165cf3cc", max_rss_mb=64),
    Probe("--dmax 100 --nmax 2001 --json", ("table", "--dmax", "100", "--nmax", "2001", "--json"), None, 0,
          "0c1ec52f8b01d0abd45b506a85b6e52b905846a44c2cdd95fbe89226da37e6f7", max_rss_mb=64),
    Probe("40 Z12xZ18xZ35xZ^2 --json", ("classify-group", "40", "Z12xZ18xZ35xZ^2", "--json"), None, 0,
          "6621337168ce3d7c548ec679df25e18acf63a6b1e92cb844ffb605755625f764", max_rss_mb=32),
    Probe("40 63 --json", ("classify", "40", "63", "--json"), None, 0,
          "c9672308d90794d85281f2461356c7412274d4c8bcd05ef80a0821cfa501e49b", max_rss_mb=32),
    Probe("1000 7", ("classify", "1000", "7"), None, 0,
          "bdb8572891c99b8597238bf6c0310a4c1c19d29a943afa41de25b33f45a7c998", max_rss_mb=32),
)


def input_text(rows) -> str:
    """A matrix file: d, then one line of d integers per row."""
    return f"{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


# Starts one probe and reports it: spawns argv[1:] with stderr to os.devnull and the launcher's stdout,
# waits for it, and writes its exit code and ru_maxrss (KiB) to the launcher's stderr.  A child's
# ru_maxrss starts at the peak of the process that spawned it, and this one, run by python -S, holds
# a few MB, not the tens that this script holds after importing nctori and building d = 800 inputs.
LAUNCHER = """
import os, sys
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ,
                      file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def run(words) -> tuple[int, float, float, str]:
    """Exit code, wall time (s), peak RSS (MB) and stdout sha256 of
    ``nctori words``, started by ``LAUNCHER``; stdout is hashed as it
    arrives, not held."""
    start = time.perf_counter()
    digest = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, "nctori", *words],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as launcher:
        for chunk in iter(lambda: launcher.stdout.read(1 << 16), b""):
            digest.update(chunk)
        report = launcher.stderr.read().decode()
    try:
        code, rss_kb = map(int, report.split())
    except ValueError:
        raise RuntimeError(f"the launcher of nctori {' '.join(words)} failed:\n{report}") from None
    return code, time.perf_counter() - start, rss_kb / 1024, digest.hexdigest()


def main() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.txt")
        for probe in PROBES:
            size = ""
            if probe.build:
                rows = probe.build()  # built just before its run and dropped
                size = f"d = {len(rows)}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(input_text(rows))
                del rows
            code, elapsed, rss_mb, digest = run([path if w == INPUT else w for w in probe.words])
            print(f"{probe.words[0]:14} {probe.name:29} {size:8} exit {code}  {elapsed:6.2f} s  {rss_mb:4.0f} MB", flush=True)
            problems = []
            if code != probe.code:
                problems.append(f"exited {code}, documented {probe.code}")
            if probe.sha256 and digest != probe.sha256:
                problems.append(f"stdout sha256 {digest}, documented {probe.sha256}")
            if probe.max_rss_mb and rss_mb > probe.max_rss_mb:
                problems.append(f"peak RSS {rss_mb:.0f} MB, bound {probe.max_rss_mb} MB")
            for problem in problems:
                print(f"MISMATCH: {probe.words[0]} {probe.name} {problem}", flush=True)
            mismatches += len(problems)
    return 1 if mismatches else 0


def caches() -> dict:
    """``{"module.name": fn}`` for every function with ``cache_info`` that a
    module of ``nctori`` defines; every module is imported."""
    modules = [importlib.import_module(f"nctori.{m.name}") for m in pkgutil.iter_modules(nctori.__path__)]
    return {f"{m.__name__[len('nctori.'):]}.{name}": fn for m in modules for name, fn in vars(m).items()
            if hasattr(fn, "cache_info") and fn.__module__ == m.__name__}


def report_caches() -> None:
    from gen import WORKLOADS
    from nctori.cli import main as cli_main
    from run import requests_for

    found = caches()
    for workload, build in WORKLOADS.items():
        for fn in found.values():
            fn.cache_clear()
        with tempfile.TemporaryDirectory() as tmp:
            requests = build(1, requests_for(workload, 30), tmp)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for request in requests:
                    cli_main(request["argv"])
        print(f"{workload}: {len(requests)} requests (seed 1)")
        for name, fn in sorted(found.items()):
            info = fn.cache_info()
            calls = info.hits + info.misses
            ratio = f"{info.hits / calls:.3f}" if calls else "-"
            print(f"  {name:28} {info.hits:6} hits of {calls:6} = {ratio:5}  maxsize {info.maxsize}  currsize {info.currsize}")


# the modules of nctori loaded after one request, the argv given as JSON
_LOADED = """
import contextlib, io, json, sys
import nctori.cli
with contextlib.redirect_stdout(io.StringIO()):
    nctori.cli.main(json.loads(sys.argv[1]))
print(" ".join(sorted(m[len("nctori."):] for m in sys.modules if m.startswith("nctori."))))
"""

# a start as bench/run.py setup_samples times it: until import nctori.cli returns, from the path given
_START = "import sys, time; sys.path.insert(0, sys.argv[1]); import nctori.cli; print(time.monotonic())"


def report_startup() -> None:
    """Print the nctori modules that a ``classify``, an ``analyze`` and a
    ``theta`` request load, each in a fresh ``python -S``, then the median of
    9 fresh ``import nctori.cli`` starts from a copy of ``src/`` without
    bytecode, so that each start compiles the sources, as the benchmark's
    ``setup_s`` does."""
    src = Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c5.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(input_text(block_form("C5")))
        env = dict(os.environ, PYTHONPATH=str(src))
        for words in (["classify", "7", "5", "--json"], ["analyze", path, "--json"], ["theta", path, "--json"]):
            done = subprocess.run([sys.executable, "-S", "-c", _LOADED, json.dumps(words)],
                                  capture_output=True, text=True, env=env, check=True)
            names = done.stdout.split()
            print(f"{words[0]:9} loads {len(names)} nctori modules: {' '.join(names)}")
        copy = os.path.join(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        samples = []
        for _ in range(9):
            t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by processes
            done = subprocess.run([sys.executable, "-c", _START, copy], capture_output=True, text=True, env=env, check=True)
            samples.append(float(done.stdout) - t0)
        print(f"import nctori.cli, compiled at each start: median of 9 starts {statistics.median(samples):.4f} s")

if __name__ == "__main__":
    sys.exit(main())
