"""Reference computations that only the tests use."""

from fractions import Fraction
from math import gcd

from nctori.invariants import Identity, NegCyclotomic


def rotation_spectrum(spec) -> tuple[Fraction, ...]:
    """Eigenvalue angles of the realized matrix, as the sorted multiset of
    q in [0, 1) with exp(2 pi i q) an eigenvalue.

    A Cyclotomic(n) block contributes {k/n : gcd(k, n) = 1}; negation shifts
    every angle by 1/2; identity blocks contribute zeros.
    """
    angles: list[Fraction] = []
    for block in spec:
        if isinstance(block, Identity):
            angles.extend([Fraction(0)] * block.m)
            continue
        shift = Fraction(1, 2) if isinstance(block, NegCyclotomic) else Fraction(0)
        n = block.n
        angles.extend((Fraction(k, n) + shift) % 1 for k in range(1, n + 1) if gcd(k, n) == 1)
    return tuple(sorted(angles))
