"""Reference computations that only the tests use."""

from fractions import Fraction
from math import gcd

from nctori.arith import cyclotomic, totient, totient_bound
from nctori.exactlin import Matrix
from nctori.invariants import Block, BlockSpec, Cyclotomic, Identity, NegCyclotomic, block_dim, block_label


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


def matrix_pow(a: Matrix, k: int) -> Matrix:
    """a^k for a square ``a`` and k >= 0, by repeated squaring: the power
    check that the cyclotomic-type certificate is compared against."""
    if not a.is_square:
        raise ValueError("pow requires a square matrix")
    if k < 0:
        raise ValueError("negative powers not supported")
    if k == 0:
        return Matrix.identity(a.nrows)
    # start from the lowest set bit, so no product is by the identity:
    # bit_length - 1 squarings and popcount - 1 multiplications
    base = a
    while not k & 1:
        base = base @ base
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = base @ base
        if k & 1:
            result = result @ base
        k >>= 1
    return result


def block_menu(max_n: int = 12, max_identity: int = 3) -> tuple[Block, ...]:
    """The standard test menu: Cyclotomic(n) for n <= max_n, NegCyclotomic(n)
    for odd n <= max_n, Identity(m) for m <= max_identity."""
    menu: list[Block] = [Cyclotomic(n) for n in range(1, max_n + 1)]
    menu.extend(NegCyclotomic(n) for n in range(1, max_n + 1, 2))
    menu.extend(Identity(m) for m in range(1, max_identity + 1))
    return tuple(menu)


def enumerate_specs(max_dim: int, menu=None) -> list[BlockSpec]:
    """All multisets of menu blocks with total dimension <= max_dim, each as a
    canonically sorted tuple (ascending dimension, then label)."""
    menu = block_menu() if menu is None else tuple(menu)
    ordered = sorted(menu, key=lambda b: (block_dim(b), block_label(b)))
    out: list[BlockSpec] = []

    def extend(idx: int, budget: int, acc: list[Block]):
        out.append(tuple(acc))
        for i in range(idx, len(ordered)):
            b = ordered[i]
            if block_dim(b) <= budget:
                acc.append(b)
                extend(i, budget - block_dim(b), acc)
                acc.pop()

    extend(0, max_dim, [])
    return out


def poly_divmod(num, den):
    """Quotient and remainder of ``num / den`` for a monic divisor ``den``.

    Plain long division over the integers; exact because the divisor is monic.
    """
    if not den or den[-1] != 1:
        raise ValueError("poly_divmod requires a monic divisor")
    rem = list(num)
    dd = len(den) - 1
    if dd == 0:
        return tuple(rem), ()
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, cd in enumerate(den):
                rem[i - dd + j] -= c * cd
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def cyclotomic_factors_by_division(poly, p):
    """The reference for ``arith.cyclotomic_factors``: each Phi_n, n = 1, 2,
    ... up to ``totient_bound(r)`` for the degree r left, divided out of the
    residues ``poly`` over Z while the remainder vanishes modulo p."""
    ns = []
    top = totient_bound(len(poly) - 1)
    n = 1
    while len(poly) > 1 and n <= top:
        if totient(n) < len(poly):
            quot, rem = poly_divmod(poly, cyclotomic(n))
            while not any(c % p for c in rem):
                ns.append(n)
                poly = [c % p for c in quot]
                top = totient_bound(len(poly) - 1)
                quot, rem = poly_divmod(poly, cyclotomic(n))
        n += 1
    return None if len(poly) > 1 else tuple(ns)
