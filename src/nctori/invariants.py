"""Exterior-power invariant ranks of finite-order integer matrices.

Three independent routes compute the rank of the fixed lattice of the m-th
exterior power of a finite-order matrix:

* ``invariant_ranks`` applies Molien's formula to the cyclotomic type of a
  block spec: the average of det(I + t a^e) over the cyclic group is a sum
  over the divisors e of the order of products of powers of F_k(t) =
  Phi_k(-t), with no matrix, no traces and no Newton's identities.  While
  the packed size d w stays below ``_KRONECKER_MAX_BITS`` the sum is
  evaluated at one integer 2^w (Kronecker substitution): each F_k(2^w)
  once, each product as big-integer powers, and the ranks read off the
  base-2^w digits.  Past it each product is formed by one linear
  recurrence, whose work is estimated first and capped (``MAX_RANK_WORK``);
* ``invariant_ranks_molien`` reads every degree off the matrix itself by
  the same formula: from the traces of the powers a^g for the divisors g of
  the order and Newton's identities.  It shares no code with the spectral
  route and is what ``analyze`` reports as its cross-check;
* ``invariant_rank_oracle`` is the brute-force check of one degree m:
  build the compound matrix (``exactlin.compound``), subtract the
  identity, and take the exact rank over the rationals (``exactlin.rank``).
  Its cost grows with C(d, m)^2, so it serves the test suite up to
  dimension 12.

``s1`` sums the odd-degree invariant ranks; under a free-outside-the-origin
cyclic action this is the rank of K_1 of the crossed product.  ``s1`` itself
does not verify freeness (callers gate on ``spec_free``), which keeps it
usable on tensor factors whose freeness was established separately.
"""

from __future__ import annotations

import functools
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import mul
from struct import pack, unpack

from .arith import cyclotomic, divisors, factorize, read_int, totient
from .record import Frozen, set_field

# the matrix modules, exactlin and finite, are imported only inside the functions that take or build a
# Matrix, so that a verdict, which reads block specs alone, loads neither


class Cyclotomic(Frozen):
    """Companion block of the n-th cyclotomic polynomial (order n, size phi(n))."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("Cyclotomic block index must be positive")
        set_field(self, "n", n)


class NegCyclotomic(Frozen):
    """Negated companion block of the n-th cyclotomic polynomial."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("NegCyclotomic block index must be positive")
        set_field(self, "n", n)


class Identity(Frozen):
    """Identity block of size m (the residual torus directions)."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("Identity block size must be positive")
        set_field(self, "m", m)


Block = Cyclotomic | NegCyclotomic | Identity
BlockSpec = tuple[Block, ...]


def block_dim(block: Block) -> int:
    if isinstance(block, Identity):
        return block.m
    return totient(block.n)


def block_order(block: Block) -> int:
    """Multiplicative order of the realized block."""
    if isinstance(block, Identity):
        return 1
    if isinstance(block, Cyclotomic):
        return block.n
    n = block.n
    if n % 2 == 1:
        return 2 * n
    return n // 2 if n % 4 == 2 else n


def block_label(block: Block) -> str:
    if isinstance(block, Cyclotomic):
        return f"C{block.n}"
    if isinstance(block, NegCyclotomic):
        return f"negC{block.n}"
    return f"I{block.m}"


def parse_block_spec(text: str) -> BlockSpec:
    """Parse the '+'-separated mini-grammar: tokens C<n>, negC<n>, I<m>.

    >>> parse_block_spec("C9+negC3+I2")
    (Cyclotomic(n=9), NegCyclotomic(n=3), Identity(m=2))
    """
    blocks: list[Block] = []
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty block spec")
    for token in cleaned.split("+"):
        if token.startswith("negC"):
            kind, arg = NegCyclotomic, token[4:]
        elif token.startswith("C"):
            kind, arg = Cyclotomic, token[1:]
        elif token.startswith("I"):
            kind, arg = Identity, token[1:]
        else:
            raise ValueError(f"unrecognized block token {token!r}")
        if not arg.isdecimal():
            raise ValueError(f"block token {token!r} needs a positive integer argument")
        blocks.append(kind(read_int(arg)))
    return tuple(blocks)


def spec_dim(spec) -> int:
    return sum(block_dim(b) for b in spec)


def _order_dims(spec) -> dict[int, int]:
    """Block order m -> summed dimension of the blocks of order m, the number
    of eigenvalues of the realized matrix that are primitive m-th roots of 1."""
    dims: dict[int, int] = {}
    for b in spec:
        m = block_order(b)
        dims[m] = dims.get(m, 0) + block_dim(b)
    return dims


def spec_order(spec) -> int:
    return lcm(*_order_dims(spec), 1)


def spec_free(spec) -> bool:
    """``free_outside_origin(realize(spec))`` read off the blocks: every block
    has the same order, so each eigenvalue is a primitive root of unity of
    the full order."""
    return len(_order_dims(spec)) <= 1


def spec_nondegenerate(spec) -> bool:
    """``nondegenerate_invariant_exists(realize(spec))[0]`` off the block
    orders: the eigenvalues 1 and -1 (the blocks of order 1 and 2) each have
    a multiplicity other than one.

    A nondegenerate Theta exists exactly when the invariant skew forms have
    no common kernel vector.  Over C they pair the lambda eigenspace with the
    1/lambda one only; for lambda != +-1 every such pairing is invariant, so
    no vector is in all their kernels.  On the eigenspaces of 1 and -1 they
    are all the skew forms there, whose common kernel is nonzero exactly
    when that eigenspace is a line.

    >>> spec_nondegenerate(parse_block_spec("C3+I1")), spec_nondegenerate(parse_block_spec("C3+I2"))
    (False, True)
    """
    dims = _order_dims(spec)
    return 1 not in (dims.get(1, 0), dims.get(2, 0))


def _realize_block(block: Block) -> Matrix:
    from .exactlin import Matrix, companion

    if isinstance(block, Identity):
        return Matrix.identity(block.m)
    c = companion(cyclotomic(block.n))
    return -c if isinstance(block, NegCyclotomic) else c


def realize(spec) -> Matrix:
    """Integer matrix realization: the direct sum of the blocks in order."""
    from .exactlin import block_diag

    return block_diag(_realize_block(b) for b in spec)


# Largest estimated work (coefficient steps, see ``invariant_ranks``) that the
# spectral route takes on: the exponent table on both evaluations, plus the
# recurrences past ``_KRONECKER_MAX_BITS``; past it ``invariant_ranks``
# raises ValueError.  On a 2-core Xeon VM a step costs 0.2-0.35 us at large
# work: C9240 (d = 1920) is 6.7 million steps and 1.2 s, thirty-five C401
# blocks (d = 14,000) 5.8 million and 2.0 s; C30030 (d = 5760) would be 86
# million.
MAX_RANK_WORK = 10_000_000


def _neg_cyclotomic(k: int) -> list[tuple[int, int]]:
    """F_k(t) = prod (1 + t zeta) over the primitive k-th roots zeta, as its
    nonzero (degree, coefficient) pairs: 1 + t for k = 1, Phi_k(-t) else."""
    if k == 1:
        return [(0, 1), (1, 1)]
    return [(i, -c if i % 2 else c) for i, c in enumerate(cyclotomic(k)) if c]


def _mul_sparse(a: list[int], f: list[tuple[int, int]]) -> list[int]:
    out = [0] * (len(a) + f[-1][0])
    for i, c in f:
        out[i : i + len(a)] = [u + c * v for u, v in zip(out[i : i + len(a)], a)]
    return out


def _power_product(factors, d: int) -> list[int]:
    """Coefficients of prod F_k^x over (k, x) in ``factors``, of degree d.

    The factors with x = 1 are multiplied in last.  Q = prod F^x over
    the rest, each with F(0) = 1, has R Q' = S Q for R = prod F and
    S = R sum x F'/F (built factor by factor), and comparing the
    coefficients of t^(j-1) gives

        j q_j = sum_(o >= 1) q_(j-o) (s_(o-1) + o r_o - j r_o),

    one pass over the degrees j with the few nonzero terms of R and S
    (J. C. P. Miller's power recurrence, Knuth TAOCP 4.7, for a product).
    """
    plain = [_neg_cyclotomic(k) for k, x in factors if x == 1]
    powered = [(k, x) for k, x in factors if x > 1]
    r, s = [1], []
    for k, x in powered:
        f = _neg_cyclotomic(k)
        s = [u + v for u, v in zip(_mul_sparse(s, f), _mul_sparse(r, [(i - 1, x * i * c) for i, c in f if i]))]
        r = _mul_sparse(r, f)
    terms = [(o, s[o - 1] + o * r[o], r[o]) for o in range(1, len(r)) if s[o - 1] or r[o]]
    q = [1] + [0] * (d - sum(f[-1][0] for f in plain))
    for j in range(1, len(q)):
        q[j] = sum(q[j - o] * (a - b * j) for o, a, b in terms if o <= j) // j
    for f in plain:
        q = _mul_sparse(q, f)
    return q


def _product_work(factors) -> int:
    """Coefficient steps of ``_power_product(factors, d)``, read off the
    degrees and nonzero counts of the bases: forming R and S, the
    recurrence (at most min(deg R, prod of the nonzero counts) terms per
    degree), then each x = 1 factor against the coefficients so far."""
    powered = [(_neg_cyclotomic(k), x) for k, x in factors if x > 1]
    deg_r = sum(f[-1][0] for f, _ in powered)
    size = sum(x * f[-1][0] for f, x in powered) + 1
    work = (deg_r + 1) * sum(len(f) for f, _ in powered) + size * min(deg_r, prod(len(f) for f, _ in powered))
    for k, x in factors:
        if x == 1:
            f = _neg_cyclotomic(k)
            work += size * len(f)
            size += f[-1][0]
    return work


# Kronecker evaluation packs the Molien sum into d + 1 digits of w bits; from
# about this many bits of d w on, its big-integer products cost more than the
# recurrences of ``_power_product``.  Per spec, in-process (2-core Xeon VM,
# CPython 3.11), Kronecker against the recurrence: flips C2^80 (d w = 6,320)
# 0.079 against 0.083 ms, C2^96 (9,120) 0.118 against 0.087 ms; C89 (8,096)
# 0.13 against 0.20 ms, C127 (16,506) 0.35 against 0.31 ms; a d = 812 block
# 81 against 1.4 ms.  Products of many distinct F_k gain past it
# (C41+C25+C9+C8+C7+I24, 11,700: 7.9 against 45 ms), but the seed-1
# ``verdicts`` specs take 6.4 ms with this bound and 6.1-6.2 ms with any
# bound from 12,288 to 65,536.
_KRONECKER_MAX_BITS = 8192


def _digit_bits(n: int, d: int) -> int:
    """Width w of a base-2^w digit that holds every N r_k <= N C(d, k), with a
    spare bit: the bit length of N C(d, floor(d/2)), plus one."""
    return (n * comb(d, d // 2)).bit_length() + 1


def _molien_terms(spec: BlockSpec) -> tuple[int, int, dict[tuple[tuple[int, int], ...], int], int]:
    """(N, d, weights, work) of the Molien sum of ``spec``: each distinct
    product prod F_k^x, as its sorted (k, x) pairs, with the summed
    phi(N/e) of the divisors e that give it, and the work of the exponent
    table, checked against ``MAX_RANK_WORK`` before the divisors are listed."""
    dims = _order_dims(spec)
    n = lcm(*dims, 1)
    d = sum(dims.values())
    fac = factorize(n)
    # the exponent table and the weighted sum cost len(dims) + d + 1 per divisor
    work = len(dims) + d + 1
    for _, a in fac:
        work *= a + 1
    _check_rank_work(work, spec)
    weights: dict[tuple[tuple[int, int], ...], int] = {}
    for e in divisors(n):
        exps: dict[int, int] = {}
        for m, dm in dims.items():
            k = m // gcd(m, e)
            exps[k] = exps.get(k, 0) + dm // totient(k)
        key = tuple(sorted(exps.items()))
        weights[key] = weights.get(key, 0) + totient(n // e)
    return n, d, weights, work


def _kronecker_sum(weights, d: int, w: int) -> list[int]:
    """The coefficients of sum weight prod F_k^x over ``weights``, read as the
    d + 1 base-X digits of its value at X = 2^w (Kronecker substitution).
    Each F_k(X) = Phi_k(-X) is formed once, by shifts; each product is a
    product of big-integer powers.  The coefficients are N r_k, in [0, X/2)
    for w from ``_digit_bits``, so the digits are exact; ArithmeticError
    when the value has digits past degree d (or is negative)."""
    values: dict[int, int] = {}
    total = 0
    for key, weight in weights.items():
        term = weight
        for k, x in key:
            if k not in values:
                values[k] = sum(c << (w * i) for i, c in _neg_cyclotomic(k))
            term *= values[k] ** x
        total += term
    if total >> (w * (d + 1)):
        raise ArithmeticError(f"Molien sum has digits past degree {d}")
    mask = (1 << w) - 1
    return [total >> (w * i) & mask for i in range(d + 1)]


def _recurrence_sum(weights, d: int) -> list[int]:
    """The coefficients of sum weight prod F_k^x over ``weights``, one
    ``_power_product`` recurrence per product."""
    totals = [0] * (d + 1)
    for key, w in weights.items():
        for i, c in enumerate(_power_product(key, d)):
            totals[i] += w * c
    return totals


@functools.lru_cache(maxsize=None)
def invariant_ranks(spec: BlockSpec) -> tuple[int, ...]:
    """All invariant ranks (degree 0 through the dimension), by Molien's
    formula applied to the cyclotomic type.

    With N = spec_order(spec) and m = block_order(b) for each block b,

        sum_k r_k t^k = (1/N) sum_(e | N) phi(N/e) prod_b F_m'(t)^(phi(m)/phi(m')),
        m' = m / gcd(m, e),

    where F_1 = 1 + t and F_k(t) = Phi_k(-t) for k >= 2, the product of
    1 + t zeta over the primitive k-th roots zeta: the e-th power of a
    primitive m-th root is a primitive m'-th root, each hit phi(m)/phi(m')
    times (Molien 1897; Stanley, Bull. AMS 1 (1979), section 3).  An
    identity block of size j gives (1 + t)^j.  No matrix is built.

    Blocks are grouped by m' for each e, and the divisors that give the
    same exponents share one product (``_molien_terms``).  The work of the
    exponent table, len(orders) + d + 1 steps per divisor, is estimated
    first and checked against ``MAX_RANK_WORK``.  The sum is then evaluated
    one of two ways, chosen from d and N alone: while d w is below
    ``_KRONECKER_MAX_BITS`` (w from ``_digit_bits``), at one integer 2^w
    (``_kronecker_sum``); past it by one recurrence per product
    (``_recurrence_sum``), whose ``_product_work`` is added to the estimate
    and checked again first.  Past ``MAX_RANK_WORK`` ValueError is raised.
    ArithmeticError is raised if a coefficient of the sum is not divisible
    by N, which the formula rules out.

    >>> invariant_ranks((Cyclotomic(5),))
    (1, 0, 2, 0, 1)
    """
    spec = tuple(spec)
    n, d, weights, work = _molien_terms(spec)
    w = _digit_bits(n, d)
    if d * w < _KRONECKER_MAX_BITS:
        totals = _kronecker_sum(weights, d, w)
    else:
        _check_rank_work(work + sum(map(_product_work, weights)), spec)
        totals = _recurrence_sum(weights, d)
    ranks = []
    for m, total in enumerate(totals):
        q, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"Molien sum at degree {m} is not divisible by the order {n}")
        ranks.append(q)
    return tuple(ranks)


def _check_rank_work(work: int, spec: BlockSpec) -> None:
    if work > MAX_RANK_WORK:
        label = "+".join(block_label(b) for b in spec[:4]) + ("+..." if len(spec) > 4 else "")
        raise ValueError(
            f"invariant ranks of {label} need about {work} coefficient steps, "
            f"past the limit MAX_RANK_WORK = {MAX_RANK_WORK}"
        )


def invariant_rank(spec, m: int) -> int:
    """Rank of the fixed lattice of the m-th exterior power of the realized
    matrix: ``invariant_ranks(spec)[m]``, the degree-m coefficient of the
    spectral Molien sum (cross-checked against ``invariant_rank_oracle``).
    """
    spec = tuple(spec)
    if not 0 <= m <= spec_dim(spec):
        raise ValueError(f"degree {m} out of range for dimension {spec_dim(spec)}")
    return invariant_ranks(spec)[m]


def s1(spec) -> int:
    """Sum of the odd-degree invariant ranks.

    For a free-outside-the-origin cyclic action this is the K_1 rank of the
    crossed product; the freeness hypothesis is the caller's responsibility.
    """
    return sum(invariant_ranks(tuple(spec))[1::2])


def invariant_ranks_molien(a: Matrix, n: int) -> tuple[int, ...]:
    """Invariant ranks of every degree 0..d of a square matrix with a^n = I,
    by Molien's formula: sum_m r_m t^m = (1/n) sum_{k<n} det(I + t a^k).

    The powers a^k with gcd(k, n) = e have the eigenvalues of a^e up to a
    Galois automorphism, so they share its characteristic polynomial and
    sum_m r_m t^m = (1/n) sum_{e | n} phi(n/e) det(I + t a^e).  The power
    sums of the eigenvalues of a^e are p_k = tr(a^(ek)) = tr(a^gcd(ek, n)),
    so only the traces of a^g for the divisors g of n are needed, and
    Newton's identities turn them into the coefficients of det(I + t a^e),
    once for each distinct sequence p_1..p_d.

    Powers are formed along the left-to-right binary chain of n (which ends
    in the check a^n = I), each product by ``_int_product`` (Kronecker
    substitution while the entries fit 64-bit words).  The trace of a^g for
    a divisor g off the chain is sum_ij (a^x)_ij (a^(g-x))_ji for the
    largest exponent x < g formed so far, with a^(g-x) formed the same way
    when it is missing.

    Raises ValueError when the matrix is not a square integer matrix or
    a^n != I, and ArithmeticError when an exact division leaves a remainder
    (which a^n = I rules out).

    >>> invariant_ranks_molien(realize((Cyclotomic(5),)), 5)
    (1, 0, 2, 0, 1)
    """
    from .finite import _integral

    if not a.is_square:
        raise ValueError("Molien's formula requires a square matrix")
    if not _integral(a.rows):
        raise ValueError("Molien's formula requires an integer matrix")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    d = a.nrows
    if not d:
        return (1,)
    # a^g as one flat row-major list per exponent g
    powers = {1: list(chain.from_iterable(a.rows))}

    def power(g: int) -> list[int]:
        if g not in powers:
            h = max(h for h in powers if h < g)
            powers[g] = _int_product(powers[h], power(g - h), d)
        return powers[g]

    e = 1
    for bit in bin(n)[3:]:
        powers[2 * e] = _int_product(powers[e], powers[e], d)
        e *= 2
        if bit == "1":
            powers[e + 1] = _int_product(powers[e], powers[1], d)
            e += 1
    identity = [0] * (d * d)
    identity[:: d + 1] = [1] * d
    if powers[n] != identity:
        raise ValueError(f"matrix does not satisfy a^{n} = I")
    divs = divisors(n)
    trace = {}
    for g in divs:
        if g in powers:
            trace[g] = sum(powers[g][:: d + 1])
        else:
            x = max(h for h in powers if h < g)
            y = power(g - x)
            trace[g] = sum(map(mul, powers[x], chain.from_iterable(y[j::d] for j in range(d))))
    weights: dict[tuple[int, ...], int] = {}
    for e in divs:
        # (-1)^(k-1) p_k for k = 1..d: the power sums with the signs of
        # Newton's identities for the coefficients of det(I + t a^e)
        signed = [trace[gcd(e * k, n)] for k in range(1, d + 1)]
        signed[1::2] = [-p for p in signed[1::2]]
        key = tuple(signed)
        weights[key] = weights.get(key, 0) + totient(n // e)
    totals = [0] * (d + 1)
    for signed, weight in weights.items():
        coeffs = [1]
        for m in range(1, d + 1):
            q, r = divmod(sum(map(mul, reversed(coeffs), signed)), m)
            if r:
                raise ArithmeticError(f"Newton's identity at degree {m} is not integral")
            coeffs.append(q)
        for m, c in enumerate(coeffs):
            totals[m] += weight * c
    ranks = []
    for total in totals:
        q, r = divmod(total, n)
        if r:
            raise ArithmeticError(f"Molien sum {total} is not divisible by the order {n}")
        ranks.append(q)
    return tuple(ranks)


def _int_product(x: list[int], y: list[int], d: int) -> list[int]:
    """x y for d x d integer matrices given as flat row-major lists (d >= 1).

    While the entries of y and the bound d max|x| max|y| on an entry of the
    product stay below 2^63, by Kronecker substitution: row k of y is packed
    into one integer Y_k with 64-bit digits, so row i of the product is the
    one integer sum_k x_ik Y_k, whose digits are its entries, none carrying
    into the next.  Digits pass through little-endian two's complement words
    (``struct`` format q): xor with the mask of every word's top bit turns
    them into offset digits, entry + 2^63, and back.  Wider entries take
    plain row-by-column sums.
    """
    mx = max(map(abs, x))
    my = max(map(abs, y))
    if max(d * mx * my, my) >> 63:
        cols = [y[j::d] for j in range(d)]
        return [sum(map(mul, x[k : k + d], col)) for k in range(0, len(x), d) for col in cols]
    words = f"<{len(y)}q"
    row_bytes = 8 * d
    mask = int.from_bytes((bytes(7) + b"\x80") * d, "little")
    raw = pack(words, *y)
    packed = [(int.from_bytes(raw[k : k + row_bytes], "little") ^ mask) - mask for k in range(0, len(raw), row_bytes)]
    raw = b"".join(
        [((sum(map(mul, x[k : k + d], packed)) + mask) ^ mask).to_bytes(row_bytes, "little") for k in range(0, len(x), d)]
    )
    return list(unpack(words, raw))


ORACLE_MAX_DIM = 12


def invariant_rank_oracle(a: Matrix, m: int) -> int:
    """Brute-force invariant rank: C(d, m) - rank(compound(a, m) - I) over Q.

    Requires a finite-order matrix (caller's contract) of dimension at most
    12; use ``invariant_rank`` beyond that.  Integer or rational entries.

    >>> [invariant_rank_oracle(realize((Cyclotomic(5),)), m) for m in range(5)]
    [1, 0, 2, 0, 1]
    """
    if not a.is_square:
        raise ValueError("oracle requires a square matrix")
    d = a.nrows
    if d > ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dimension {ORACLE_MAX_DIM}, got {d}")
    if not 0 <= m <= d:
        raise ValueError(f"degree {m} out of range for dimension {d}")
    from .exactlin import _shift_diag, compound, rank

    c = compound(a, m)
    return c.nrows - rank(_shift_diag(c, -1))


def free_outside_origin(a: Matrix) -> bool:
    """True when every nontrivial power of ``a`` fixes only the origin, i.e.
    every eigenvalue is a primitive root of unity of the full order: all n
    of the cyclotomic type are equal.  Raises ValueError on infinite order."""
    from .finite import cyclotomic_type

    ns = cyclotomic_type(a)
    if ns is None:
        raise ValueError("matrix does not have finite order")
    return len(set(ns)) <= 1
