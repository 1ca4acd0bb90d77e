"""Seeded request generators for the three workloads.

A request is a dict with ``argv`` (the command line handed to
``nctori.cli.main``) and ``expect`` (what the generator knows about the input,
from which ``check.py`` derives the right answer).  The same seed gives the
same requests and byte-identical matrix files.

Costs differ by orders of magnitude between request kinds and dimensions, so
the expensive kinds are placed on a fixed schedule (a cycle of strata) and the
seed only picks the inputs inside each stratum.  A run of a few seconds then
always sees the same mix, whatever the seed.
"""

from __future__ import annotations

import functools
import math
import os
import random

from reference import block_dim, block_rows, block_sum, phi, spec_order

# -- verdicts -----------------------------------------------------------------

PRIMES = [p for p in range(2, 130) if all(p % q for q in range(2, p))]
LARGE_D_EVERY = 100  # one request in a hundred is a large-d classify
LARGE_D_BINS = 16  # log-spaced dimension bins inside [256, 1024], visited in turn


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _prime_power_order(rng: random.Random, d: int) -> int:
    """A product of one to three prime powers with distinct primes, each
    prime power small enough that its own phi fits in d."""
    n = 1
    used = set()
    for _ in range(rng.randint(1, 3)):
        choices = [p for p in PRIMES if p - 1 <= d and p not in used]
        if not choices:
            break
        p = rng.choice(choices)
        e = 1
        while phi(p ** (e + 1)) <= d and rng.random() < 0.4:
            e += 1
        used.add(p)
        n *= p**e
    return n if n >= 2 else 2


def _verdict_request(rng: random.Random) -> dict:
    d = _log_uniform(rng, 1, 128)
    if rng.random() < 0.7:
        n = _prime_power_order(rng, d) if rng.random() < 0.8 else rng.randint(2, 1000)
        return {
            "argv": ["classify", str(d), str(n), "--json"],
            "expect": {"kind": "cyclic", "d": d, "n": n, "json": True},
        }
    factors = [rng.randint(2, 32) for _ in range(rng.randint(1, 3))]
    free = rng.randint(1, 3) if rng.random() < 0.25 else 0
    expr = "x".join(f"Z{n}" for n in factors) + (f"xZ^{free}" if free else "")
    return {
        "argv": ["classify-group", str(d), expr, "--json"],
        "expect": {"kind": "group", "d": d, "factors": factors, "free": free},
    }


def _large_d_request(rng: random.Random, stratum: int) -> dict:
    lo = math.log(256)
    width = (math.log(1024) - lo) / LARGE_D_BINS
    b = stratum % LARGE_D_BINS
    d = min(1024, int(math.exp(rng.uniform(lo + b * width, lo + (b + 1) * width))))
    n = rng.randint(2, 30)
    return {
        "argv": ["classify", str(d), str(n)],
        "expect": {"kind": "cyclic", "d": d, "n": n, "json": False},
    }


def verdicts(seed: int, count: int, workdir: str) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % LARGE_D_EVERY == LARGE_D_EVERY // 2:
            out.append(_large_d_request(rng, i // LARGE_D_EVERY))
        else:
            out.append(_verdict_request(rng))
    return out


# -- analyze --------------------------------------------------------------------

_MENU_MAX_N = 64


@functools.lru_cache(maxsize=None)
def _block_menu(budget: int) -> tuple[str, ...]:
    """Canonical block labels of dimension at most ``budget``: C<n> (n >= 2),
    negC<n> (odd n >= 3) and I<1..3>; C1 and negC1 are left out because
    they read back as I1 and C2."""
    labels = [f"C{n}" for n in range(2, _MENU_MAX_N + 1) if phi(n) <= budget]
    labels += [f"negC{n}" for n in range(3, _MENU_MAX_N + 1, 2) if phi(n) <= budget]
    labels += [f"I{m}" for m in range(1, min(budget, 3) + 1)]
    return tuple(labels)


def random_spec(rng: random.Random, d: int) -> list[str]:
    """A random block multiset of total dimension d, adjacent identities merged."""
    spec: list[str] = []
    left = d
    while left:
        label = rng.choice(_block_menu(left))
        left -= block_dim(label)
        if label.startswith("I") and spec and spec[-1].startswith("I"):
            label = f"I{int(spec.pop()[1:]) + int(label[1:])}"
        spec.append(label)
    return spec


def conjugate(rows: list[list[int]], rng: random.Random, entry_bound: int) -> list[list[int]]:
    """P A P^-1 for a random unimodular P, built from elementary operations
    (add c times row j to row i, then subtract c times column i from column
    j).  Operations that would push an entry past ``entry_bound`` are
    skipped, which keeps entry sizes, and so arithmetic cost, alike across
    seeds."""
    a = [row[:] for row in rows]
    d = len(a)
    for _ in range(6 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        new_row = [x + c * y for x, y in zip(a[i], a[j])]
        new_col = [row[j] - c * (new_row if k == i else row)[i] for k, row in enumerate(a)]
        new_col[i] = new_row[j] - c * new_row[i]
        if max(map(abs, new_row)) <= entry_bound and max(map(abs, new_col)) <= entry_bound:
            a[i] = new_row
            for k, row in enumerate(a):
                row[j] = new_col[k]
    return a


HYPERBOLIC = [[2, 1], [1, 1]]  # eigenvalue (3 + sqrt 5) / 2: infinite order


def _write_matrix(path: str, rows: list[list[int]]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)}\n")
        for row in rows:
            fh.write(" ".join(str(x) for x in row) + "\n")


def _spec_with_order(rng: random.Random, d: int, band) -> list[str]:
    """A random spec of dimension d whose matrix order lies in ``band``
    (inclusive bounds; None accepts any order)."""
    while True:
        spec = random_spec(rng, d)
        if band is None or band[0] <= spec_order(spec) <= band[1]:
            return spec


def _analyze_request(rng: random.Random, stratum, path: str, entry_bound: int) -> dict:
    form, d, band = stratum
    if form == "inf":
        spec = _spec_with_order(rng, d - 2, band)
        rows = conjugate(block_sum([HYPERBOLIC] + [block_rows(b) for b in spec]), rng, entry_bound)
    else:
        spec = _spec_with_order(rng, d, band)
        rows = block_sum([block_rows(b) for b in spec])
        if form == "conj":
            rows = conjugate(rows, rng, entry_bound)
    _write_matrix(path, rows)
    return {
        "argv": ["analyze", path, "--json"],
        "expect": {"kind": "analyze", "form": form, "d": d, "spec": spec},
    }


# One cycle of (form, d, order band) strata per workload.  Cheap and
# expensive strata alternate, so any stretch of the list has the same mix.
# Strata of similar cost are repeated so that the median and the 90th
# percentile of a run fall inside a group of alike requests rather than on the
# edge between strata of very different cost, where the seed would decide
# which side wins.  Above d = 12 the cost of a finite-order matrix grows with
# its order (one matrix product per power), so analyze_large also fixes an
# order band per stratum: LOW, MID and HIGH cover the spread of orders that
# random block multisets have at these dimensions.
LOW, MID, HIGH = (2, 40), (41, 120), (121, 420)
ANALYZE_SMALL_CYCLE = [
    ("block", 4, None), ("conj", 8, None), ("block", 9, None), ("conj", 5, None),
    ("block", 8, None), ("conj", 7, None), ("block", 10, None), ("conj", 4, None),
    ("block", 7, None), ("conj", 8, None), ("block", 5, None), ("conj", 7, None),
    ("block", 9, None), ("conj", 6, None), ("block", 8, None), ("conj", 7, None),
    ("block", 6, None),
]
ANALYZE_LARGE_CYCLE = [
    ("block", 13, MID), ("conj", 18, MID), ("block", 16, MID), ("conj", 14, MID),
    ("inf", 17, None), ("block", 18, HIGH), ("conj", 15, MID), ("block", 14, LOW),
    ("conj", 18, MID), ("block", 15, HIGH), ("conj", 13, MID), ("block", 17, MID),
    ("conj", 16, HIGH), ("block", 13, LOW), ("conj", 17, LOW), ("block", 16, LOW),
    ("conj", 14, MID), ("block", 18, MID), ("inf", 15, None), ("conj", 16, MID),
    ("conj", 18, LOW),
]
SMALL_ENTRY_BOUND = 6
LARGE_ENTRY_BOUND = 2


def _analyze(seed: int, count: int, workdir: str, cycle, entry_bound: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        path = os.path.join(workdir, f"m{i:05d}.txt")
        out.append(_analyze_request(rng, cycle[i % len(cycle)], path, entry_bound))
    return out


def analyze_small(seed: int, count: int, workdir: str) -> list[dict]:
    return _analyze(seed, count, workdir, ANALYZE_SMALL_CYCLE, SMALL_ENTRY_BOUND)


def analyze_large(seed: int, count: int, workdir: str) -> list[dict]:
    return _analyze(seed, count, workdir, ANALYZE_LARGE_CYCLE, LARGE_ENTRY_BOUND)


WORKLOADS = {"verdicts": verdicts, "analyze_small": analyze_small, "analyze_large": analyze_large}
