"""Graded K-rank bookkeeping: exact-or-lower-bound ranks with a Künneth product.

Ranks are either Exact(v) or AtLeast(v); products and sums follow interval
semantics where Exact(0) annihilates (0 times any true rank is 0) and any
surviving AtLeast taints exactness.  The Künneth product is the Z_2-graded
tensor rule for torsion-free K-theory, which is the only kind representable
here: every crossed-product factor in scope has torsion-free K-groups, so
the Tor terms of the general sequence never contribute.
"""

from __future__ import annotations

from functools import reduce

from .invariants import Block, Cyclotomic, Identity, NegCyclotomic, s1
from .record import Frozen, set_field

EXACT = "exact"
AT_LEAST = "at_least"


class RankInfo(Frozen):
    """Either the exact rank of a free abelian group or a lower bound on it."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int):
        if kind not in (EXACT, AT_LEAST):
            raise ValueError(f"bad kind {kind!r}")
        if value < 0:
            raise ValueError("rank value must be nonnegative")
        set_field(self, "kind", kind)
        set_field(self, "value", value)

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    def __str__(self):
        return str(self.value) if self.is_exact else f">={self.value}"


def exact(v: int) -> RankInfo:
    return RankInfo(EXACT, v)


def at_least(v: int) -> RankInfo:
    return RankInfo(AT_LEAST, v)


def _entry(x: RankInfo, y: RankInfo, u: RankInfo, v: RankInfo) -> RankInfo:
    """x*y + u*v: a product with an Exact(0) factor drops out, and the sum is
    exact only when every product left is exact."""
    kind, total = EXACT, 0
    for a, b in ((x, y), (u, v)):
        if (a.kind == EXACT and a.value == 0) or (b.kind == EXACT and b.value == 0):
            continue
        total += a.value * b.value
        if a.kind != EXACT or b.kind != EXACT:
            kind = AT_LEAST
    return RankInfo(kind, total)


class GradedRank(Frozen):
    """The pair (rank K_0, rank K_1)."""

    __slots__ = ("k0", "k1")

    def __init__(self, k0: RankInfo, k1: RankInfo):
        set_field(self, "k0", k0)
        set_field(self, "k1", k1)

    def __str__(self):
        return f"(k0={self.k0}, k1={self.k1})"


KUNNETH_UNIT = GradedRank(exact(1), exact(0))


def kunneth(a: GradedRank, b: GradedRank) -> GradedRank:
    """Graded tensor product of torsion-free K-ranks:
    k0 = a0*b0 + a1*b1 and k1 = a0*b1 + a1*b0."""
    return GradedRank(_entry(a.k0, b.k0, a.k1, b.k1), _entry(a.k0, b.k1, a.k1, b.k0))


def kunneth_all(factors) -> GradedRank:
    """The Künneth product of ``factors``, folded from the first one; the
    unit only for an empty product."""
    factors = iter(factors)
    return reduce(kunneth, factors, next(factors, KUNNETH_UNIT))


def torus_k(m: int) -> GradedRank:
    """K-ranks of an m-torus: (2^{m-1}, 2^{m-1}) for m >= 1, (1, 0) for m = 0.

    >>> print(torus_k(3), torus_k(0))
    (k0=4, k1=4) (k0=1, k1=0)
    """
    return kunneth_torus(KUNNETH_UNIT, m)


def kunneth_torus(a: GradedRank, m: int) -> GradedRank:
    """``kunneth(a, torus_k(m))`` in closed form: for m >= 1 both torus ranks
    are the exact t = 2^{m-1}, so k0 and k1 are the same entry a0*t + a1*t,
    built as one ``RankInfo``.  An exact-zero a0 or a1 drops out of it, and
    dropping it changes neither the sum nor the kind, so the entry is t times
    a0 + a1, exact when both are.

    >>> print(kunneth_torus(GradedRank(at_least(1), exact(2)), 3))
    (k0=>=12, k1=>=12)
    """
    if m < 0:
        raise ValueError("torus dimension must be nonnegative")
    if m == 0:
        return a
    x, y = a.k0, a.k1
    k = RankInfo(EXACT if x.kind == y.kind == EXACT else AT_LEAST, (x.value + y.value) << (m - 1))
    return GradedRank(k, k)


# The K_0 rank of every factor: positive, as the algebra is unital.  RankInfo
# is frozen, so every factor shares this one record.
_UNITAL_K0 = at_least(1)


def factor_k(block: Block) -> GradedRank:
    """K-ranks of one crossed-product factor: a single cyclotomic or negated
    cyclotomic block acting on its own coordinates.

    k1 is exact (the odd invariant-rank sum for the block's free cyclic
    action); k0 is only known to be positive, since the algebra is unital
    and no closed form for the K_0 rank is in scope here.  One block has one
    cyclotomic factor, so it is free outside the origin by construction.

    A negated block of odd order q has k1 = 0 with no ranks computed: every
    eigenvalue of an odd exterior power of -C_q is -1 times a q-th root of
    unity, which is never 1 for odd q, so no odd degree has an invariant.

    >>> print(factor_k(Cyclotomic(7)), factor_k(NegCyclotomic(7)))
    (k0=>=1, k1=2) (k0=>=1, k1=0)
    """
    if isinstance(block, Identity):
        raise ValueError("factor_k applies to cyclotomic blocks, not identity blocks")
    if isinstance(block, NegCyclotomic) and block.n % 2:
        return GradedRank(_UNITAL_K0, exact(0))
    if not isinstance(block, (Cyclotomic, NegCyclotomic)):
        raise TypeError(f"not a block: {block!r}")
    return GradedRank(_UNITAL_K0, exact(s1((block,))))
