"""Exact dense linear algebra over the integers and rationals.

Matrices are immutable with ``int`` or ``fractions.Fraction`` entries; all
computations are exact.  Determinants use fraction-free Bareiss elimination,
rank and kernels use fraction-free integer echelon reduction with gcd
normalization (rational input is first scaled to integers by the lcm of its
denominators, ``_scaled_int_rows``), and a compound matrix comes from a
Laplace sweep over only the rows its degree reaches.  Finite order is
decided on the characteristic polynomial modulo one word-sized Mersenne
prime above ``totient_bound(d)``, taken by Krylov chains on packed lanes
(by the recurrence of an upper Hessenberg matrix when the input is one),
factored on its half-degree trace polynomial (``arith.cyclotomic_factors``),
and certified over Z on the exact chains of its seeds, on packed 64-bit
lanes or on Python ints (``cyclotomic_type``).  All pure, thread-safe.
"""

from __future__ import annotations

import itertools
import operator
import sys
from math import gcd, lcm
from struct import pack, unpack

from .arith import IntPolynomial, cyclotomic, cyclotomic_factors, poly_mul, totient_bound
from .record import Frozen, set_field


def _norm_entry(x):
    if type(x) is int:  # the common case; skips the lookup and the ABC check in isinstance(x, Fraction)
        return x
    fractions = sys.modules.get("fractions")  # loaded whenever x is a Fraction, so never imported here
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix(Frozen):
    """Immutable dense matrix. Entries are exact (int, or Fraction in lowest terms)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(map(tuple, rows))
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            rows = tuple(tuple(map(_norm_entry, row)) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        else:
            ncols = 0 if ncols is None else ncols
        set_field(self, "rows", rows)
        set_field(self, "nrows", len(rows))
        set_field(self, "ncols", ncols)

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        return cls(((1 if i == j else 0 for j in range(d)) for i in range(d)), d)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(((0,) * ncols for _ in range(nrows)), ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        bt = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        mul = operator.mul
        return Matrix(((sum(map(mul, row, col)) for col in bt) for row in self.rows), other.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix((map(operator.neg, r) for r in self.rows), self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols, self.nrows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _scaled_int_rows(m: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows of D m, D) for D the lcm of the denominators of ``m``; the rows
    are ``m.rows`` itself when ``m`` is an integer matrix."""
    scale = lcm(*(x.denominator for x in itertools.chain.from_iterable(m.rows) if type(x) is not int), 1)
    if scale == 1:
        return m.rows, 1
    return tuple(tuple(int(x * scale) for x in row) for row in m.rows), scale


def companion(p: IntPolynomial) -> Matrix:
    """Companion matrix of a monic integer polynomial.

    Layout: ones on the subdiagonal, last column carries the negated
    coefficients (-a_0, ..., -a_{d-1}); all other entries vanish.
    """
    if len(p) < 2:
        raise ValueError("companion requires degree >= 1")
    if p[-1] != 1:
        raise ValueError("companion requires a monic polynomial")
    d = len(p) - 1
    return Matrix(tuple(-p[i] if j == d - 1 else int(i == j + 1) for j in range(d)) for i in range(d))


# Exponents e of the proved Mersenne primes 2^e - 1 from 2^19 - 1 on; the
# lift passes over those that divide the lcm of the denominators.
_MERSENNE_EXPONENTS = (19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)


# Largest work of the lift, in 64-bit word products, counted before it
# starts: d^2 multiply-adds of (2d + 1)-lane integers (lanes of ``width``
# bits) and d^2 reductions of ``rho``-bit entries in ``_krylov_charpoly``;
# 16 a step (110-180 ns) of the p_m recurrence in ``_hessenberg_charpoly``.
# On a 2-core Xeon VM (CPython 3.11) the d = 308 conjugate of C307+C3
# (entries up to 40) is 5.9e7 and takes 0.7 s, that of C601 (d = 600) 4.3e8
# and 3.7 s, a dense upper Hessenberg matrix at d = 700 8.7e8 and 10 s; the
# limit is near d = 790 (e = 19), and d = 735 for that dense matrix.
MAX_LIFT_WORK = 1_000_000_000


def _check_work(d: int, work: int, what: str, name: str, limit: int):
    """Refuse ``work`` word products past ``limit``, the value of ``name``."""
    if work > limit:
        raise ValueError(
            f"the {what} of this {d} x {d} matrix needs about {work} "
            f"word products, past the limit {name} = {limit}"
        )


def _hessenberg_charpoly(h, e: int) -> tuple[list[int], list[int], tuple | None]:
    """det(x I - h) modulo the Mersenne prime p = 2^e - 1, ascending
    residues in [0, p), seeds whose Krylov spaces under h span F_p^d, and
    the seeds' integer chains (as ``_krylov_charpoly`` returns them).

    Integer ``h`` that is not upper Hessenberg goes to ``_krylov_charpoly``.
    For an upper Hessenberg H the polynomials p_m of the leading m x m
    blocks follow from

        p_(m+1) = (x - h_mm) p_m - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_i

    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9),
    and the seeds, each a chain of length 1, are 0 and each m with
    H[m][m - 1] = 0 mod p: modulo the blocks before it, each unreduced
    diagonal block of H is spanned by the Krylov chain of its first unit
    vector.  The sum at m runs down to the seed b <= m before it, the
    product t of subdiagonal entries a unit: m - b steps of t and the i + 1
    coefficients of p_i where h_im != 0 mod p, counted first, row by row,
    with the m + 1 of (x - h_mm) p_m."""
    d = len(h)
    if any(any(h[i][: i - 1]) for i in range(2, d)):
        return _krylov_charpoly(h, e)
    p = (1 << e) - 1
    r = [[x % p for x in row] for row in h]
    seeds = [m for m in range(d) if m == 0 or not r[m][m - 1]]
    steps = 0
    for b, end in zip(seeds, seeds[1:] + [d]):
        steps += (end - b) * end + sum((i + 1) * (end - i - 1 - r[i][i + 1 : end].count(0)) for i in range(b, end))
    _check_work(d, 16 * steps, "characteristic polynomial", "MAX_LIFT_WORK", MAX_LIFT_WORK)
    polys = [[1]]
    for m in range(d):
        c = r[m][m]
        new = [(x - c * y) % p for x, y in zip([0] + polys[m], polys[m] + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * r[i + 1][i] % p
            if not t:
                break
            f = r[i][m] * t % p
            if f:
                new[: i + 1] = [(x - f * y) % p for x, y in zip(new, polys[i])]
        polys.append(new)
    step = _chain_step(h, max((sum(map(abs, row)) for row in h), default=0))
    return polys[d], seeds, step and (step, [([1 << (64 * s)], [int(i == s) for i in range(d)]) for s in seeds])


def _lane_masks(d: int, t: int) -> tuple[int, int]:
    """(plus, over) such that (y + plus) & over is 0 exactly when each of the
    d signed 64-bit lanes w_i of y = sum_i w_i 2^(64 i), |w_i| < 2^63, has
    |w_i| < 2^t (0 < t < 63): then each lane of y + plus is w_i + 2^t, in
    [0, 2^(t + 1)), and none borrows from the next."""
    ones = int.from_bytes((b"\x01" + bytes(7)) * d, "little")
    return ones << t, (ones << 64) - (ones << (t + 1))


def _chain_step(h, rho: int):
    """step(y, v) = the packed and the unpacked h v, exact in signed 64-bit
    lanes, for y the packed v: sum_j v_j col_j over the nonzero v_j, col_j
    the columns of integer ``h``; None when a lane of y is 2^t or more,
    t = 62 - bit_length(rho), rho the largest row sum of |h| (``_lane_masks``),
    which keeps each lane of the product below 2^62.  None when rho >= 2^61."""
    d = len(h)
    t = 62 - rho.bit_length()
    if t < 1:
        return None
    plus, over = _lane_masks(d, t)
    # sum_i w_i 2^(64 i) + bias has the digits w_i + 2^63, and flipping
    # their top bits leaves each w_i as a signed 64-bit word
    bias = int.from_bytes((bytes(7) + b"\x80") * d, "little")
    fmt = f"<{d}q"
    cols = [(int.from_bytes(pack(fmt, *col), "little") ^ bias) - bias for col in zip(*h)]

    def step(y, v):
        if (y + plus) & over:
            return None
        y = sum(map(operator.mul, itertools.compress(v, v), itertools.compress(cols, v)))
        return y, unpack(fmt, ((y + bias) ^ bias).to_bytes(8 * d, "little"))

    return step


def _krylov_charpoly(h, e: int, exact: bool = True) -> tuple[list[int], list[int], tuple | None]:
    """det(x I - h) modulo p = 2^e - 1 and the seeds, by Krylov chains with
    restarts (Keller-Gehrig, Theoret. Comput. Sci. 36, 1985), and the chains
    over Z while they stay in 64-bit lanes.

    A chain starts at e_s, s the lowest index that is not yet a pivot, and
    runs v = h^k e_s until v reduces to 0 against the echelon rows so far.
    The vectors are the exact h^k e_s, whatever ``width``, each one step of
    ``_chain_step``; a vector past its bound restarts the pass on residues,
    as when rho >= 2^61.

    The echelon rows are integers of ``width``-bit lanes: lane i < d holds
    entry i mod p, lanes d..2d the chain coordinates (x^k for h^k e_s), and
    each row, scaled to -1 mod p at its pivot lane, costs one multiply-add.
    Rows of earlier chains lose their coordinates, so coordinates c always
    give c(h) e_s = the vector lanes modulo the earlier chains, which span an
    h-invariant space.  At 0, c is the chain's polynomial, h acts on the
    chain modulo that space as companion(c), and chi is the product over the
    chains.  An exact vector enters, on lanes of 64 bits (e = 19), as its
    lanes plus the least multiple of p from 2^62 on, folded once by the
    lane-wise Mersenne fold (x & lo) + ((x >> e) & hi), which keeps each
    residue: below 2^e + 2^(64 - e).  On wider lanes it enters as its
    residues, and on residues as the product's lanes, below d p^2.  Lanes
    stay below 2^(64 - e) + 2 d p^2 < 2^width; two folds bring a lane below
    2^e + 2d + 2^8, and a third, on x plus 1 in each lane, leaves the residue
    plus 1 in [1, p], as 2d + 2^8 < p.

    The third value is None on residues, else (step, chains), a chain being
    (its packed vectors, the last one unpacked).  Past ``MAX_LIFT_WORK`` the
    pass is refused before it starts."""
    p = (1 << e) - 1
    d = len(h)
    width = 64 * -(-(2 * e + d.bit_length() + 2) // 64)
    rho = max(sum(map(abs, row)) for row in h)
    work = d * d * ((2 * d + 1) * width // 64 + -(-rho.bit_length() // 64))
    _check_work(d, work, "characteristic polynomial", "MAX_LIFT_WORK", MAX_LIFT_WORK)
    size = width // 8
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * (2 * d + 1), "little")
    lo = ones * p
    hi = ones * ((1 << (width - e)) - 1)
    lane = (1 << width) - 1
    vector = (1 << (width * d)) - 1
    if size == 8:  # one word a lane, packed by struct

        def packed(v):
            return int.from_bytes(pack(f"<{d}Q", *v), "little")

        def lanes(x, n):
            return unpack(f"<{n}Q", x.to_bytes(8 * n, "little"))

    else:

        def packed(v):
            return sum(x << (width * i) for i, x in enumerate(v))

        def lanes(x, n):
            return [x >> (width * i) & lane for i in range(n)]

    step = _chain_step(h, rho) if exact else None
    if step is None:
        cols = [packed([x % p for x in col]) for col in zip(*h)]
    elif size == 8:
        off = (ones & vector) * (-(-(1 << 62) // p) * p)
    rows: list[tuple[int, int]] = []  # (shift of the pivot lane, packed row)
    poly, seeds, chains = [1], [], []
    while len(rows) < d:
        pivots = {shift for shift, _ in rows}
        s = next(i for i in range(d) if i * width not in pivots)
        seeds.append(s)
        start = len(rows)
        v = [0] * d
        v[s] = 1
        y = 1 << (width * s)
        chain = [1 << (64 * s)]
        for k in range(d + 1):
            x = y + (1 << (width * (d + k)))
            for shift, row in rows:
                c = (x >> shift & lane) % p
                if c:
                    x += c * row
            x = (x & lo) + ((x >> e) & hi)
            x = (x & lo) + ((x >> e) & hi) + ones
            x = (x & lo) + ((x >> e) & hi) - ones
            low = x & vector
            if not low:
                break
            shift = (low & -low).bit_length() - 1
            shift -= shift % width
            x *= pow(-(x >> shift & lane), -1, p)
            x = (x & lo) + ((x >> e) & hi)
            rows.append((shift, (x & lo) + ((x >> e) & hi)))
            if step is None:
                y = sum(map(operator.mul, v, cols))
                v = [c % p for c in lanes(y, d)]
                continue
            stepped = step(chain[-1], v)
            if stepped is None:
                return _krylov_charpoly(h, e, False)
            y, v = stepped
            chain.append(y)
            if size == 8:
                y += off
                y = (y & lo) + ((y >> e) & hi)
            else:
                y = packed([c % p for c in v])
        poly = [c % p for c in poly_mul(poly, lanes(x >> (width * d), k + 1))]
        rows[start:] = [(shift, row & vector) for shift, row in rows[start:]]
        chains.append((chain, v))
    return poly, seeds, step and (step, chains)


def _shift_diag(m: Matrix, c) -> Matrix:
    """m + c I for a square ``m``, without forming c I."""
    if not c:
        return m
    return Matrix((row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(m.rows)), m.ncols)


def _cyclotomic_lift(a: Matrix):
    """(ns, seeds, rows of D a, D, chains) of step 1 of ``cyclotomic_type``,
    from one pass of ``_hessenberg_charpoly``; None when it proves infinite
    order."""
    if not a.is_square:
        raise ValueError("cyclotomic_type requires a square matrix")
    d = a.nrows
    rows = a.rows
    flat = itertools.chain.from_iterable
    if max(abs(sum(row[i] for i, row in enumerate(rows))), abs(sum(map(operator.mul, flat(rows), flat(zip(*rows)))))) > d:
        return None  # |tr a| > d or |tr a^2| > d
    rows, scale = _scaled_int_rows(a)
    top = totient_bound(d)
    e = next((e for e in _MERSENNE_EXPONENTS if (1 << e) - 1 > top and scale % ((1 << e) - 1)), None)
    if e is None:
        raise ValueError(
            f"the lcm of the denominators is divisible by every listed Mersenne prime above {top} "
            f"up to the last, 2^{_MERSENNE_EXPONENTS[-1]} - 1 (cyclotomic_type works modulo one that is not)"
        )
    p = (1 << e) - 1
    poly, seeds, chains = _hessenberg_charpoly(rows, e)
    if scale != 1:
        poly = [c * pow(scale, k - d, p) % p for k, c in enumerate(poly)]
    reciprocal = poly[::-1] == poly or poly[::-1] == [-c % p for c in poly]
    ns = cyclotomic_factors(poly, p) if reciprocal else None
    return None if ns is None else (ns, seeds, rows, scale, chains)


# Largest work of the certificate in ``cyclotomic_type``, in 64-bit word
# products charged as its chains grow: a packed step h v multiplies the
# d-word column of each nonzero v_j and unpacks d lanes, Python ints of 3
# header words and one, so d (nnz(v) + 4); on Python ints, nnz(h) entry
# words times vector words, 3 header words plus one per 64 bits each, plus
# 100 a row for the Python int it builds (about 0.5 us).  On a 2-core Xeon
# VM (CPython 3.11) one takes 2-10 ns: P^300 B P^-300 for B = C25+C9+C8+I6
# (d = 36, 480-digit entries) is 1.3e8 and 0.6 s, a conjugate of I72+C79
# (d = 150, entries up to 40) 1.2e8 and 0.8-1.3 s, and the upper block-
# triangular matrix with blocks companion(Phi_p), p = 3 ... 79, each linked
# to the next by a 1 (d = 768, 21 seeds, on Python ints) 1.6e9 and 8.5 s,
# refused after 6.5 s.
MAX_CERTIFICATE_WORK = 1_000_000_000


def _chain_certificate(chains, coeffs, rows, seeds) -> bool:
    """Whether sum_k c_k h^k e_s = 0 over Z for each of ``seeds`` (``coeffs``
    ascending, the leading 1 included), h = ``rows``: each chain of the lift
    is extended to len(coeffs) vectors, or until it returns to e_s after L
    steps (then the c_k are added up modulo L), and summed on its packed lanes.
    With every entry of the chain below 2^t, t = 63 - bit_length(sum |c_k|),
    each lane of the sum is below 2^63 in absolute value, so the sum is 0
    only when each lane is.  From the first chain that could overflow, and
    for every seed when the lift kept no chains, the sums are taken on
    Python ints (``_int_chain_sums``).  Each step is charged."""
    d = len(rows)
    n = len(coeffs)
    t = 63 - sum(map(abs, coeffs)).bit_length()
    if chains is None or t < 1:
        return _int_chain_sums(rows, coeffs, seeds, 0)
    step, chains = chains
    plus, over = _lane_masks(d, t)
    work = 0
    for index, (chain, v) in enumerate(chains):
        chain = chain[:n]
        closed = len(chain) > 1 and chain[-1] == chain[0]
        while not closed and len(chain) < n:
            work += d * (d + 4 - v.count(0))
            _check_work(d, work, "finite-order certificate", "MAX_CERTIFICATE_WORK", MAX_CERTIFICATE_WORK)
            if (stepped := step(chain[-1], v)) is None:
                return _int_chain_sums(rows, coeffs, seeds[index:], work)
            y, v = stepped
            closed = y == chain[0]
            chain.append(y)
        if any((y + plus) & over for y in chain):
            return _int_chain_sums(rows, coeffs, seeds[index:], work)
        period = len(chain) - closed  # when closed, (D a)^k e_s is chain[k mod period]
        if sum(map(operator.mul, [sum(coeffs[j::period]) for j in range(period)], chain)):
            return False
    return True


def _int_chain_sums(rows, coeffs, seeds, work: int) -> bool:
    """Whether sum_k c_k h^k e_s = 0 for each of ``seeds``, on Python ints:
    one sparse product h v a step, charged on top of ``work``, with 100 for
    each of the d rows, whose sum and update of the total build Python ints
    in a Python-level loop whatever the entries."""
    d = len(rows)
    sparse = [(list(itertools.compress(range(d), row)), list(itertools.compress(row, row))) for row in rows]
    nnz = sum(len(cols) for cols, _ in sparse)
    entry = 3 + -(-max(map(abs, itertools.chain.from_iterable(rows)), default=0).bit_length() // 64)
    mul = operator.mul
    for s in seeds:
        v = [int(i == s) for i in range(d)]
        total = [coeffs[0] * x for x in v]
        for c in coeffs[1:]:
            work += nnz * entry * (3 + -(-max(max(v), -min(v)).bit_length() // 64)) + 100 * d
            _check_work(d, work, "finite-order certificate", "MAX_CERTIFICATE_WORK", MAX_CERTIFICATE_WORK)
            v = [sum(map(mul, vals, map(v.__getitem__, cols))) for cols, vals in sparse]
            if c:
                total = [x + c * y for x, y in zip(total, v)]
        if any(total):
            return False
    return True


def cyclotomic_type(a: Matrix) -> tuple[int, ...] | None:
    """The sorted n with det(x I - a) = prod Phi_n, when ``a`` has finite
    order; None when it has infinite order.

    Rational ``a`` is scaled to D a, D the lcm of its denominators, and the
    coefficient of x^k is c_k(D a) = D^(d - k) c_k(a).  A finite-order ``a``
    has |tr a|, |tr a^2| <= d and chi = prod Phi_n, so x^d chi(1/x) = +-chi(x).

    1. Lift (``_cyclotomic_lift``): det(x I - D a) by Krylov chains with
       restarts (the p_m recurrence when D a is already upper Hessenberg)
       modulo p = 2^e - 1, the least listed Mersenne prime above
       ``totient_bound(d)`` that does not divide D, with the coefficient of
       x^k multiplied by D^-(d - k) mod p; then Phi_1 and Phi_2 divided out
       at 1 and -1, the rest being g = x^s G(x + 1/x), and from G each Psi_n,
       Phi_n(x) = x^(phi(n)/2) Psi_n(x + 1/x), of degree at most half of what
       is left, while it divides modulo p; the rest must be 1 or one Psi_n.  A
       lift that is not reciprocal modulo p or not a product of Phi_n modulo
       p proves infinite order (``arith.cyclotomic_factors``).
    2. Certificate (``_chain_certificate``): with q = prod Phi_n over the
       distinct n of the lift and q~_k = D^(deg q - k) q_k, so that
       q~(D a) = D^(deg q) q(a), sum_k q~_k (D a)^k e_s must be exactly 0
       over Z for each seed s of the lift, taken on its exact chain.

    Proof: ker q(a) is a-invariant, so step 2 puts the seeds' Krylov spaces,
    which span F_p^d (the lift's chains fill it) and so Q^d, in it:
    q(a) = 0, ``a`` is semisimple with roots of unity as eigenvalues, and
    chi = prod Phi_n^f_n over Z for the n of the lift.  Every n tried is below p, so modulo p the Phi_n are
    squarefree and pairwise coprime, and reducing chi forces each f_n to be
    the multiplicity of the lift, read on G: a g = prod Phi_n, n >= 3, is
    palindromic of degree 2s, Phi_n | g iff Psi_n | G (G -> x^s G(x + 1/x)
    maps degree <= s one to one onto palindromic degree <= 2s, products
    onto products, quotients onto quotients), and once the Psi_n of degree
    at most half of what is left are out, two factors cannot remain.  A
    finite-order ``a`` passes both steps, as q is its minimal polynomial; the
    unipotent [[1, 1], [0, 1]] and [[C, I], [0, C]], C = companion(Phi_n), fail step 2.

    >>> cyclotomic_type(-Matrix.identity(3))
    (2, 2, 2)
    >>> cyclotomic_type(Matrix([[1, 1], [0, 1]])) is None
    True
    >>> companion(cyclotomic(3))
    Matrix(2x2: 0 -1; 1 -1)
    >>> cyclotomic_type(Matrix([[0, -1, 1, 0], [1, -1, 0, 1], [0, 0, 0, -1], [0, 0, 1, -1]])) is None
    True
    """
    lift = _cyclotomic_lift(a)
    if lift is None:
        return None
    ns, seeds, rows, scale, chains = lift
    q: IntPolynomial = (1,)
    for n in sorted(set(ns)):
        q = poly_mul(q, cyclotomic(n))
    deg = len(q) - 1
    coeffs = [c * scale ** (deg - k) for k, c in enumerate(q)]
    return ns if _chain_certificate(chains, coeffs, rows, seeds) else None


def order(a: Matrix, bound: int) -> int | None:
    """Multiplicative order of ``a`` if it is finite and at most ``bound``;
    otherwise None.  The order is lcm(n) over the cyclotomic type."""
    if bound < 1:
        raise ValueError("bound must be positive")
    ns = cyclotomic_type(a)
    if ns is None:
        return None
    k = lcm(*ns, 1)
    return k if k <= bound else None


def block_diag(blocks) -> Matrix:
    """Direct sum of square matrices, in the given order."""
    blocks = list(blocks)
    if not all(b.is_square for b in blocks):
        raise ValueError("block_diag blocks must be square")
    total = sum(b.nrows for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[offset + i][offset : offset + b.nrows] = row
        offset += b.nrows
    return Matrix(rows, ncols=total)


def rational_block_form(a: Matrix) -> tuple[Matrix, Matrix] | None:
    """P, integer when ``a`` is, and B = block_diag(companion(Phi_n) for n
    in cyclotomic_type(a)) with a @ P == P @ B and P invertible over Q; None
    when ``a`` has infinite order.

    The n are those of the lift in ``cyclotomic_type`` (None when it proves
    infinite order).  P lists chains v, a v, ..., a^(phi(n) - 1) v,
    v in ker Phi_n(a), on which ``a`` acts as companion(Phi_n); Phi_n is
    irreducible, so a chain from a kernel vector outside those taken is
    independent of them.  Chains lie in the kernels, so if they fill Q^d the
    distinct Phi_n annihilate ``a``: it is semisimple, of finite order, and
    the lift is its characteristic polynomial.  A semisimple ``a`` fills
    them, so if they fall short the answer is None.  ArithmeticError is
    raised only if the final exact check fails.

    >>> c3, c5 = companion(cyclotomic(3)), companion(cyclotomic(5))
    >>> swap = Matrix([[int(j == (i + 2) % 6) for j in range(6)] for i in range(6)])
    >>> a = swap @ block_diag([c5, c3]) @ swap.transpose()
    >>> p, b = rational_block_form(a)
    >>> b == block_diag([c3, c5]) and a @ p == p @ b
    True
    >>> rational_block_form(Matrix([[2, 1], [1, 1]])) is None
    True
    >>> rational_block_form(Matrix([[1, 1], [0, 1]])) is None
    True
    """
    lift = _cyclotomic_lift(a)
    if lift is None:
        return None
    ns = lift[0]
    d = a.nrows
    rows = a.rows
    cols: list[tuple[int, ...]] = []
    for n in sorted(set(ns)):
        poly = cyclotomic(n)
        phi_a = _shift_diag(a, poly[-2])
        for c in reversed(poly[:-2]):
            phi_a = _shift_diag(phi_a @ a, c)
        start = len(cols)
        need = start + ns.count(n) * (len(poly) - 1)
        for v in kernel_basis(phi_a):
            if len(cols) == need:
                break
            if rank(Matrix(cols[start:] + [v], ncols=d)) > len(cols) - start:
                for _ in range(len(poly) - 1):
                    cols.append(v)
                    v = tuple(sum(map(operator.mul, row, v)) for row in rows)
        if len(cols) < need:
            return None
    p = Matrix(cols, ncols=d).transpose()
    b = block_diag(companion(cyclotomic(n)) for n in ns)
    if a @ p != p @ b:
        raise ArithmeticError("rational block form failed its exact check")
    return p, b


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix (mutates rows)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        pivot = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - f * rk[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1]


def det(m: Matrix):
    """Exact determinant (int for integer input, Fraction otherwise)."""
    if not m.is_square:
        raise ValueError("det requires a square matrix")
    rows, scale = _scaled_int_rows(m)
    value = _det_int([list(row) for row in rows])
    # scale > 1 only for Fraction entries, so fractions is loaded
    return value if scale == 1 else sys.modules["fractions"].Fraction(value, scale**m.nrows)


def _content_free(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (unchanged when that is 0 or 1)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _echelon_int(rows: list) -> list[tuple[int, int]]:
    """Fraction-free row echelon via cross-multiplication with gcd reduction.

    Reorders and replaces the items of the list ``rows`` (never changing a
    row in place, so they may be tuples); returns the pivot positions
    [(row, col), ...] in order.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        # rows r.. vanish left of column c, so only the entries from c on change
        tail = rows[r][c:]
        zeros = [0] * c
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = zeros + _content_free([x * pv - f * y for x, y in zip(ri[c:], tail)])
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def _components(m: Matrix) -> list[list[int]]:
    """Connected components of the support graph of a square matrix (i and j
    joined when entry (i, j) or (j, i) is nonzero), each in ascending order,
    listed by least index.  One union-find pass over the entries."""
    n = m.nrows
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            if v and i != j:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    return len(_echelon_int(list(_scaled_int_rows(m)[0])))


def kernel_basis(m: Matrix) -> list[tuple[int, ...]]:
    """Basis of the right rational null space {x : m @ x = 0}.

    Each vector is returned as a primitive integer tuple (denominators
    cleared, gcd one, free coordinate positive), one per free column of the
    echelon form.  This is also how integer lattices are saturated here:
    the primitive kernel vectors span ker over Q and are integral.
    """
    rows = list(_scaled_int_rows(m)[0])
    pivots = _echelon_int(rows)
    ncols = m.ncols
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        # back substitution on an integer multiple of the solution: scale the
        # whole vector by a positive factor whenever a pivot does not divide
        x = [0] * ncols
        x[fc] = 1
        for r, c in reversed(pivots):
            if c > fc:
                continue
            s = sum(map(operator.mul, rows[r][c + 1 : fc + 1], x[c + 1 : fc + 1]))
            pv = rows[r][c]
            scale = abs(pv) // gcd(s, pv)
            if scale != 1:
                x = [v * scale for v in x]
                s *= scale
            x[c] = -s // pv
        basis.append(tuple(_content_free(x)))
    return basis


def reduced_basis(vectors) -> list[tuple[int, ...]]:
    """The basis ``kernel_basis`` returns for any matrix whose null space is
    spanned by the given independent rational vectors.

    That basis has one vector per free column fc: the vector of the space
    with a 1 at fc and 0 at the other free columns, made primitive with that
    coordinate positive.  Its last nonzero coordinate is fc, so the free
    columns are the pivots of an echelon form taken from the last column
    backwards, and reducing each pivot column to zero in the other rows
    leaves exactly those vectors, up to scale.
    """
    rows = list(_scaled_int_rows(Matrix(vectors))[0])
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    unpivoted = list(range(len(rows)))
    for c in range(ncols - 1, -1, -1):
        r = next((i for i in unpivoted if rows[i][c]), None)
        if r is None:
            continue
        unpivoted.remove(r)
        pv = rows[r][c]
        rr = rows[r]
        for i, ri in enumerate(rows):
            f = ri[c]
            if f and i != r:
                rows[i] = _content_free([x * pv - f * y for x, y in zip(ri, rr)])
        pivots.append((c, r))
    if unpivoted:
        raise ValueError("reduced_basis requires independent vectors")
    basis = []
    for c, r in sorted(pivots):
        row = _content_free(rows[r])
        basis.append(tuple(row) if row[c] > 0 else tuple(-x for x in row))
    return basis


def compound(a: Matrix, m: int) -> Matrix:
    """Compound matrix of the m-th exterior power of ``a``.

    Indexed by the sorted m-element subsets of the row/column indices in
    lexicographic order; entry (S, T) is the minor det(a[S, T]).  Degree j
    is built from degree j - 1 by Laplace expansion along the first row s
    of each row subset S = (s,) + S':

        det a[S, T] = sum over t in T of (-1)^k a[s, t] det a[S', T - {t}],

    k the position of t in T.  Only the nonzero entries a[s, t] are visited,
    each against the column subsets T that contain t.  A row subset of
    degree m reaches, j degrees down, only subsets of {m - j, ..., d - 1},
    so degree j < m builds just those rows (and every column subset).
    Exact on int and Fraction entries alike; intended for d <= 12
    (binomial growth).

    >>> [compound(Matrix([[1, 2], [3, 4]]), m).rows for m in range(3)]
    [((1,),), ((1, 2), (3, 4)), ((-2,),)]
    """
    if not a.is_square:
        raise ValueError("compound requires a square matrix")
    d = a.nrows
    if not 0 <= m <= d:
        raise ValueError(f"compound degree {m} out of range for dimension {d}")
    nonzero = [[(t, v) for t, v in enumerate(row) if v] for row in a.rows]
    prev = [(1,)]
    row_index = col_index = {(): 0}
    for j in range(1, m + 1):
        col_subsets = list(itertools.combinations(range(d), j))
        # containing[t]: (column of T, column of T - {t} one degree down, k odd)
        containing: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
        for c, cols in enumerate(col_subsets):
            for k, t in enumerate(cols):
                containing[t].append((c, col_index[cols[:k] + cols[k + 1 :]], k & 1))
        row_subsets = list(itertools.combinations(range(m - j, d), j))
        out = []
        for rows_s in row_subsets:
            minors = prev[row_index[rows_s[1:]]]
            row = [0] * len(col_subsets)
            for t, v in nonzero[rows_s[0]]:
                nv = -v
                for c, cm, odd in containing[t]:
                    x = minors[cm]
                    if x:
                        row[c] += (nv if odd else v) * x
            out.append(tuple(row))
        prev = out
        row_index = {rows_s: i for i, rows_s in enumerate(row_subsets)}
        col_index = {cols: c for c, cols in enumerate(col_subsets)}
    return Matrix(prev, len(prev[0]))
