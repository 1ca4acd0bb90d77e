"""Independent reference arithmetic for checking nctori's answers.

Nothing here imports nctori: expected values are derived from the generating
inputs (the order n, the group factors, the block multiset) with small
stand-alone routines, so a check never trusts the code it checks and never
warms the program's caches.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def w_order(n: int) -> int:
    """Least d with an order-n element in GL_d(Z): the sum of phi over the
    prime powers of n, less one when 2 divides n exactly once."""
    fac = factorize(n)
    return sum((p - 1) * p ** (e - 1) for p, e in fac) - (1 if dict(fac).get(2) == 1 else 0)


def w_group(factors) -> int:
    """Dimension cost of the finite abelian group with the given cyclic factors.

    Closed form of the minimum over cyclic decompositions: every prime power
    q costs phi(q); a lone Z_2 part costs one more (the -I_2 block), and a
    Z_2 merged into a part with odd primes costs one less.  Each odd prime
    power can host at most one Z_2, so min(t, K) of the t copies of Z_2 merge
    into the K odd prime powers and the rest stand alone.
    """
    powers = [p**e for n in factors for p, e in factorize(n)]
    twos = powers.count(2)
    odd = sum(1 for q in powers if q % 2)
    return sum(phi(q) for q in powers) - min(twos, odd) + max(twos - odd, 0)


def group_exponent(factors) -> int:
    return lcm(*factors, 1)


def af_paper(n: int) -> bool:
    """The closed-form AF predicate on the order n (n >= 2)."""
    fac = dict(factorize(n))
    k, j, i = fac.get(2, 0), fac.get(3, 0), fac.get(5, 0)
    big = [p for p in fac if p > 5]
    if not big and k != 1 and j <= 2 and i <= 1:
        return True
    return k == 1 and len(big) <= 1 and j <= 2 and i <= 1


# -- blocks -------------------------------------------------------------------
#
# A block is a label string: "C<n>" (companion of the n-th cyclotomic
# polynomial), "negC<n>" (its negative) or "I<m>" (identity of size m).

_LABEL = re.compile(r"^(negC|C|I)(\d+)$")


def parse_label(label: str) -> tuple[str, int]:
    m = _LABEL.match(label)
    if not m:
        raise ValueError(f"bad block label {label!r}")
    return m.group(1), int(m.group(2))


def block_dim(label: str) -> int:
    kind, k = parse_label(label)
    return k if kind == "I" else phi(k)


def block_order(label: str) -> int:
    kind, k = parse_label(label)
    if kind == "I":
        return 1
    if kind == "C" or k % 4 == 0:
        return k
    return 2 * k if k % 2 else k // 2


def spec_order(labels) -> int:
    return lcm(*(block_order(b) for b in labels), 1)


def spectrum(labels) -> list[Fraction]:
    """Eigenvalue angles q in [0, 1) (eigenvalue exp(2 pi i q)) of the block sum."""
    out: list[Fraction] = []
    for b in labels:
        kind, k = parse_label(b)
        if kind == "I":
            out.extend([Fraction(0)] * k)
            continue
        shift = Fraction(1, 2) if kind == "negC" else Fraction(0)
        out.extend((Fraction(j, k) + shift) % 1 for j in range(1, k + 1) if gcd(j, k) == 1)
    return out


def free_outside_origin(labels) -> bool:
    """Every eigenvalue is a primitive root of unity of the full order."""
    order = spec_order(labels)
    return all(q.denominator == order for q in spectrum(labels))


@functools.lru_cache(maxsize=None)
def invariant_ranks(labels: tuple[str, ...]) -> tuple[int, ...]:
    """Rank of the fixed lattice of each exterior power, degree 0..d.

    Degree m counts the m-element index subsets of the spectrum whose angles
    sum to an integer (a 0/1 knapsack over residues, one angle at a time).
    """
    angles = spectrum(labels)
    modulus = lcm(*(q.denominator for q in angles), 1)
    steps = [q.numerator * (modulus // q.denominator) for q in angles]
    table: list[dict[int, int]] = [{0: 1}] + [{} for _ in angles]
    for placed, s in enumerate(steps):
        for m in range(placed, -1, -1):
            src, dst = table[m], table[m + 1]
            for r, count in src.items():
                key = (r + s) % modulus
                dst[key] = dst.get(key, 0) + count
    return tuple(t.get(0, 0) for t in table)


# -- integer matrices ---------------------------------------------------------


def cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(poly) - 1, len(div) - 2, -1):
                c = poly[i]
                if c:
                    quot[i - len(div) + 1] = c
                    for j, cd in enumerate(div):
                        poly[i - len(div) + 1 + j] -= c * cd
            poly = quot
    return tuple(poly)


def block_rows(label: str) -> list[list[int]]:
    """Integer matrix of one block, in the layout the analyzer recognizes:
    ones on the subdiagonal and the negated coefficients in the last column."""
    kind, k = parse_label(label)
    if kind == "I":
        return [[int(i == j) for j in range(k)] for i in range(k)]
    poly = cyclotomic(k)
    size = len(poly) - 1
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        if i:
            rows[i][i - 1] = 1
        rows[i][size - 1] = -poly[i]
    if kind == "negC":
        rows = [[-x for x in row] for row in rows]
    return rows


def block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out
