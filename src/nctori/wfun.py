"""Minimal-dimension cost functions for finite-order elements and abelian groups.

``w_order(n)`` is the least d such that GL_d(Z) contains an element of order
n.  ``w_cyclic`` adjusts the n = 2 case (a sign block alone cannot carry a
group factor, so Z_2 costs two dimensions), and ``w_group`` gives the least
total over the cyclic decompositions of the torsion part, with a canonical
minimizer built directly instead of searched for.  ``w_cost`` gives that
total alone, from a closed form, and ``w_decomposition`` the minimizer
alone.  Pure functions throughout.
"""

from __future__ import annotations

import functools
import math

from .arith import factorize, totient
from .record import Frozen, set_field


@functools.lru_cache(maxsize=1024)
def w_order(n: int) -> int:
    """Dimension cost of an order-n element: sum of phi(p^e) over the prime
    powers of n, reduced by one when the factor 2 appears with exponent one.

    It depends on n alone, so it is cached, bounded like ``classify._part``:
    a run of cyclic verdicts asks for the same orders again and again, and
    each miss factors n once.

    >>> w_order(6)
    2
    >>> w_order(9)
    6
    """
    if n < 1:
        raise ValueError(f"w_order expects a positive integer, got {n}")
    total = 0
    deduct = 0
    for p, e in factorize(n):
        total += (p - 1) * p ** (e - 1)
        if p == 2 and e == 1:
            deduct = 1
    return total - deduct


def w_cyclic(n: int) -> int:
    """Dimension cost of the cyclic group Z_n; equals w_order(n) except that
    Z_2 costs 2 (its realization must spend a full -I_2 block)."""
    if n < 2:
        raise ValueError(f"w_cyclic expects n >= 2, got {n}")
    return 2 if n == 2 else w_order(n)


class AbelianGroup(Frozen):
    """A finitely generated abelian group in primary decomposition.

    ``torsion`` is the sorted multiset of prime-power orders of the cyclic
    factors; ``free_rank`` counts the Z factors.
    """

    __slots__ = ("torsion", "free_rank")

    def __init__(self, torsion: tuple[int, ...] = (), free_rank: int = 0):
        for q in torsion:
            if len(factorize(q)) != 1:
                raise ValueError(f"torsion entry {q} is not a prime power")
        self._set(torsion, free_rank)

    def _set(self, torsion, free_rank: int) -> None:
        if free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        set_field(self, "torsion", tuple(sorted(torsion)))
        set_field(self, "free_rank", free_rank)

    @classmethod
    def from_factors(cls, factors, free_rank: int = 0) -> "AbelianGroup":
        """Build from arbitrary cyclic factor orders, splitting composites
        into prime powers (Z_6 becomes Z_2 x Z_3).

        Each factor is factored once.  The prime powers it splits into are
        prime powers by construction, so ``__init__``'s check, which factors
        every entry again, is skipped.
        """
        torsion = []
        for n in factors:
            if n < 2:
                raise ValueError(f"cyclic factor orders must be >= 2, got {n}")
            torsion.extend(p**e for p, e in factorize(n))
        group = cls.__new__(cls)
        group._set(torsion, free_rank)
        return group

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def __str__(self):
        parts = [f"Z{q}" for q in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return "x".join(parts) if parts else "Z^0"


class CyclicDecomposition(Frozen):
    """A factoring of a torsion multiset into cyclic parts.

    Each part is a product of prime powers with pairwise distinct primes, so
    it really is the order of one cyclic factor; together the parts use up
    the whole multiset.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        set_field(self, "parts", tuple(sorted(parts)))


def w_cost(g: AbelianGroup) -> int:
    """W of the torsion part alone, the least sum(w_cyclic(n_l)) over its
    cyclic decompositions, with no decomposition built.

    Each prime power q costs phi(q), a Z_2 alone in its part one more and a
    Z_2 merged into a part with odd entries one less: with z copies of Z_2
    and o odd entries the minimum is sum(phi(q)) + z - 2 min(z, o).  The
    free rank plays no role.

    >>> w_cost(AbelianGroup.from_factors([2, 3, 4], free_rank=1))
    4
    """
    z = g.torsion.count(2)
    o = sum(q % 2 for q in g.torsion)
    return sum(map(totient, g.torsion)) + z - 2 * min(z, o)


def w_group(g: AbelianGroup) -> tuple[int, CyclicDecomposition]:
    """W of the torsion part (``w_cost``) with one minimizing cyclic
    decomposition (``w_decomposition``).

    >>> w_group(AbelianGroup.from_factors([2, 3]))
    (2, CyclicDecomposition(parts=(6,)))
    >>> w_group(AbelianGroup.from_factors([2, 3, 4]))
    (4, CyclicDecomposition(parts=(4, 6)))
    """
    return w_cost(g), w_decomposition(g)


def w_decomposition(g: AbelianGroup) -> CyclicDecomposition:
    """The canonical cyclic decomposition of the torsion part that attains
    W, with W itself left to ``w_cost``.  No merged part is factored.

    Minimizers are tie-broken toward fewer parts (the largest multiplicity
    of a prime), then the lexicographically smallest sorted part list.  When
    no prime repeats (the lcm of the entries is their product) the group is
    cyclic, and its one part, the product, is the minimizer: one part costs
    sum(phi(q)) plus one for a lone Z_2 and minus one for a Z_2 beside an
    odd entry, which is ``w_cost``.  Otherwise the minimizer is built
    smallest part first: each part is the least product that takes one
    entry of every prime of the largest remaining multiplicity, at most one
    of any other prime, and keeps min(z, o) merges attainable.  It takes no
    power of 2, the smallest Z_2 or the smallest higher power of 2, and the
    smallest entry of each odd prime it must take, plus at most the smallest
    entry of one other odd prime.

    >>> w_decomposition(AbelianGroup.from_factors([8, 9, 5]))
    CyclicDecomposition(parts=(360,))
    >>> w_decomposition(AbelianGroup.from_factors([2, 2, 3]))
    CyclicDecomposition(parts=(2, 6))
    """
    t = g.torsion
    whole = math.prod(t)
    if t and math.lcm(*t) == whole:
        return CyclicDecomposition((whole,))
    z = t.count(2)
    higher = [q for q in reversed(t) if q > 2 and q % 2 == 0]  # largest first
    odd: dict[int, list[int]] = {}  # odd prime -> its entries, largest first
    for q in reversed(t):
        if q % 2:
            odd.setdefault(factorize(q)[0][0], []).append(q)
    o = sum(map(len, odd.values()))
    parts = []
    while z or higher or odd:
        size = max([z + len(higher)] + [len(e) for e in odd.values()])
        taken = [p for p, e in odd.items() if len(e) == size]
        base = math.prod(odd[p][-1] for p in taken)
        spare = min(((e[-1], p) for p, e in odd.items() if len(e) < size), default=None)
        options = []
        for two in ([1] if z + len(higher) < size else []) + ([2] if z else []) + higher[-1:]:
            for extra, p_extra in [(1, None)] + ([spare] if spare else []):
                k = len(taken) + (extra > 1)  # odd entries in the part
                if (two == 2 and k > 0) + min(z - (two == 2), o - k) == min(z, o):
                    options.append((two * base * extra, two, p_extra))
        part, two, p_extra = min(options)
        parts.append(part)
        if two == 2:
            z -= 1
        elif two > 2:
            higher.pop()
        for p in taken + ([p_extra] if p_extra else []):
            odd[p].pop()
            o -= 1
            if not odd[p]:
                del odd[p]
    return CyclicDecomposition(tuple(parts))


def max_finite_order(d: int) -> int:
    """Largest order of a finite-order element of GL_d(Z): max{n : w_order(n) <= d}.

    The default order range of the ``table`` command."""
    if d < 1:
        raise ValueError("dimension must be positive")
    # best[b]: the largest product of powers of distinct primes, among those
    # taken so far, whose costs sum to at most b (a knapsack, prime by prime)
    best = [1] * (d + 1)
    for p in range(2, d + 2):
        if factorize(p)[0][0] != p:
            continue
        new = best[:]
        q, cost = p, 0 if p == 2 else p - 1  # a lone factor of 2 costs nothing
        while cost <= d:
            for b in range(cost, d + 1):
                new[b] = max(new[b], q * best[b - cost])
            cost = (p - 1) * q
            q *= p
        best = new
    return best[d]
