"""Exact matrices and their finite order: the lift, the factor reader and the certificate.

``Matrix``, the package's immutable exact matrix, lives here, in the lowest
matrix layer, and ``exactlin`` imports it back: a request that reads a
matrix and its cyclotomic type (``analyze``) loads no other matrix module.  ``cyclotomic_type`` decides whether an integer matrix has
finite order, and its cyclotomic type, from the characteristic polynomial
modulo the one Mersenne prime P = 2^19 - 1 (``_P``), taken by Krylov chains
on packed 64-bit lanes (by the recurrence of an upper Hessenberg matrix
when the input is one), factored on its half-degree trace polynomial
(``cyclotomic_factors``), and certified over Z on the exact chains of its
seeds, on packed 64-bit lanes or on Python ints.  Stdlib, ``arith`` and
``record`` only; all pure, thread-safe.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from math import comb
from struct import pack, unpack

from .arith import IntPolynomial, cyclotomic, poly_mul, totient, totient_bound
from .record import Frozen, set_field


def _integral(rows) -> bool:
    """Whether every entry of ``rows`` is an int (a Matrix keeps a Fraction only off Z)."""
    return set(map(type, itertools.chain.from_iterable(rows))) <= {int}


def _norm_entry(x):
    if type(x) is int:  # the common case; skips the lookup and the ABC check in isinstance(x, Fraction)
        return x
    fractions = sys.modules.get("fractions")  # loaded whenever x is a Fraction, so never imported here
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool and other int subclasses become plain ints
        return int(x)
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix(Frozen):
    """Immutable dense matrix. Entries are exact (int, or Fraction in lowest terms)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(map(tuple, rows))
        if not _integral(rows):
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


# The lift works modulo the Mersenne prime _P = 2^E - 1, above totient_bound(d),
# as its proof needs, up to d = 94,647: far past MAX_LIFT_WORK on either
# route.  So one prime serves, and a packed lane is one 64-bit word.
_E = 19
_P = (1 << _E) - 1


# Largest work of the lift, in 64-bit word products, counted before it
# starts: d^2 multiply-adds of (2d + 1)-word integers and d^2 reductions
# of ``rho``-bit entries in ``_krylov_charpoly``;
# 16 a step (110-180 ns) of the p_m recurrence in ``_hessenberg_charpoly``.
# On a 2-core Xeon VM (CPython 3.11) the d = 308 conjugate of C307+C3
# (entries up to 40) is 5.9e7 and takes 0.7 s, that of C601 (d = 600) 4.3e8
# and 3.7 s, a dense upper Hessenberg matrix at d = 700 8.7e8 and 10 s; the
# limit is near d = 790, and d = 735 for that dense matrix.
MAX_LIFT_WORK = 1_000_000_000


def _check_work(d: int, work: int, what: str, name: str, limit: int):
    """Refuse ``work`` word products past ``limit``, the value of ``name``."""
    if work > limit:
        raise ValueError(
            f"the {what} of this {d} x {d} matrix needs about {work} "
            f"word products, past the limit {name} = {limit}"
        )


def _hessenberg_charpoly(h) -> tuple[list[int], list[int], tuple | None]:
    """det(x I - h) modulo the Mersenne prime p = ``_P``, ascending
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
        return _krylov_charpoly(h)
    p = _P
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


def _krylov_charpoly(h, exact: bool = True) -> tuple[list[int], list[int], tuple | None]:
    """det(x I - h) modulo p = ``_P`` and the seeds, by Krylov chains with
    restarts (Keller-Gehrig, Theoret. Comput. Sci. 36, 1985), and the chains
    over Z while they stay in 64-bit lanes.

    A chain starts at e_s, s the lowest index that is not yet a pivot, and
    runs v = h^k e_s until v reduces to 0 against the echelon rows so far.
    The vectors are the exact h^k e_s, each one step of ``_chain_step``; a
    vector past its bound restarts the pass on residues, as when rho >= 2^61.

    The echelon rows are integers of 64-bit lanes: lane i < d holds entry
    i mod p, lanes d..2d the chain coordinates (x^k for h^k e_s), and each
    row, scaled to -1 mod p at its pivot lane, costs one multiply-add.
    Rows of earlier chains lose their coordinates, so coordinates c always
    give c(h) e_s = the vector lanes modulo the earlier chains, which span an
    h-invariant space.  At 0, c is the chain's polynomial, h acts on the
    chain modulo that space as companion(c), and chi is the product over the
    chains.  An exact vector enters as its lanes plus the least multiple of
    p from 2^62 on, folded once by the lane-wise Mersenne fold
    (x & lo) + ((x >> E) & hi), which keeps each residue: below
    2^E + 2^(64 - E).  On residues it enters as the product's lanes, below
    d p^2.  Lanes stay below 2^(64 - E) + 2 d p^2 < 2^64; two folds bring a
    lane below 2^E + 2d + 2^8, and a third, on x plus 1 in each lane, leaves
    the residue plus 1 in [1, p], as 2d + 2^8 < p.

    The third value is None on residues, else (step, chains), a chain being
    (its packed vectors, the last one unpacked).  Past ``MAX_LIFT_WORK`` the
    pass is refused before it starts."""
    e = _E
    p = _P
    d = len(h)
    rho = max(sum(map(abs, row)) for row in h)
    work = d * d * (2 * d + 1 + -(-rho.bit_length() // 64))
    _check_work(d, work, "characteristic polynomial", "MAX_LIFT_WORK", MAX_LIFT_WORK)
    ones = int.from_bytes((b"\x01" + bytes(7)) * (2 * d + 1), "little")
    lo = ones * p
    hi = ones * ((1 << (64 - e)) - 1)
    lane = (1 << 64) - 1
    vector = (1 << (64 * d)) - 1
    fmt = f"<{d}Q"
    step = _chain_step(h, rho) if exact else None
    if step is None:
        cols = [int.from_bytes(pack(fmt, *(x % p for x in col)), "little") for col in zip(*h)]
    else:
        off = (ones & vector) * (-(-(1 << 62) // p) * p)
    rows: list[tuple[int, int]] = []  # (shift of the pivot lane, packed row)
    poly, seeds, chains = [1], [], []
    while len(rows) < d:
        pivots = {shift for shift, _ in rows}
        s = next(i for i in range(d) if 64 * i not in pivots)
        seeds.append(s)
        start = len(rows)
        v = [0] * d
        v[s] = 1
        y = 1 << (64 * s)
        chain = [y]
        for k in range(d + 1):
            x = y + (1 << (64 * (d + k)))
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
            shift -= shift % 64
            x *= pow(-(x >> shift & lane), -1, p)
            x = (x & lo) + ((x >> e) & hi)
            rows.append((shift, (x & lo) + ((x >> e) & hi)))
            if step is None:
                y = sum(map(operator.mul, v, cols))
                v = [c % p for c in unpack(fmt, y.to_bytes(8 * d, "little"))]
                continue
            stepped = step(chain[-1], v)
            if stepped is None:
                return _krylov_charpoly(h, False)
            y, v = stepped
            chain.append(y)
            y += off
            y = (y & lo) + ((y >> e) & hi)
        poly = [c % p for c in poly_mul(poly, unpack(f"<{k + 1}Q", (x >> (64 * d)).to_bytes(8 * (k + 1), "little")))]
        rows[start:] = [(shift, row & vector) for shift, row in rows[start:]]
        chains.append((chain, v))
    return poly, seeds, step and (step, chains)


def trace_form(g: list[int]) -> list[int]:
    """G with g(x) = x^s G(x + 1/x) for g palindromic of degree 2s, each top t^j = sum_i C(j, i) x^(j - 2i)
    of x^-s g taken off the x^(j - 2i) + x^(2i - j) below it.  Psi_n = trace_form(Phi_n), n >= 3, is the
    minimal polynomial of 2 cos(2 pi / n) (Lehmer, Amer. Math. Monthly 40, 1933); Psi_5 = t^2 + t - 1."""
    s = len(g) // 2
    h = g[s:]
    for j in range(s, 1, -1):
        for i in range(1, j // 2 + 1):
            h[j - 2 * i] -= h[j] * comb(j, i)
    return h


@functools.lru_cache(maxsize=None)
def _trace_terms(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms of Psi_n (``trace_form``) mod _P below its leading one, as (j - deg, c)."""
    psi = trace_form(list(cyclotomic(n)))
    return tuple((j - len(psi) + 1, c % _P) for j, c in enumerate(psi[:-1]) if c % _P)


def _divide_out(g: list[int], k: int, terms, n: int, ns: list[int]) -> list[int]:
    """g divided modulo _P by x^k + sum c x^(k + j), (j, c) in ``terms``, while it divides; n joins ns each time."""
    p = _P
    while len(g) > k:
        r = g[:]
        for i in range(len(g) - 1, k - 1, -1):
            c = r[i] = r[i] % p
            if c:
                for j, cj in terms:
                    r[i + j] -= c * cj
        if any(c % p for c in r[:k]):
            break
        g = r[k:]
        ns.append(n)
    return g


def cyclotomic_factors(poly: list[int]) -> tuple[int, ...] | None:
    """The n, ascending with multiplicity, with ``poly`` = prod Phi_n mod _P (``poly`` monic, residues
    ascending); else None.  Phi_1 and Phi_2 go by synthetic division at 1 and -1; of G, g = x^s G(x + 1/x) the rest,
    each Psi_n of degree at most s/2 is divided out mod _P while it divides, and what is left, with at most one factor
    of larger degree, is 1 or one Psi_n (``cyclotomic_type`` proves Phi_n | g iff Psi_n | G)."""
    ns: list[int] = []
    poly = _divide_out(_divide_out(poly, 1, ((-1, -1),), 1, ns), 1, ((-1, 1),), 2, ns)
    if poly[::-1] != poly:
        return None
    g = [c % _P for c in trace_form(poly)]
    for n in range(3, totient_bound(len(g) - 1) + 1):
        if totient(n) < len(g):  # degree phi(n)/2 at most half of what is left
            g = _divide_out(g, totient(n) // 2, _trace_terms(n), n, ns)
    for n in range(3, totient_bound(2 * len(g) - 2) + 1):  # then at most one Psi_n is left
        if totient(n) == 2 * len(g) - 2:
            g = _divide_out(g, totient(n) // 2, _trace_terms(n), n, ns)
    return None if len(g) > 1 else tuple(sorted(ns))


def _cyclotomic_lift(a):
    """(ns, seeds, chains) of step 1 of ``cyclotomic_type``, from one pass of
    ``_hessenberg_charpoly``; None when it proves infinite order."""
    if not a.is_square:
        raise ValueError("cyclotomic_type requires a square matrix")
    d = a.nrows
    rows = a.rows
    flat = itertools.chain.from_iterable
    if not _integral(rows):
        raise ValueError("cyclotomic_type requires an integer matrix")
    if max(abs(sum(row[i] for i, row in enumerate(rows))), abs(sum(map(operator.mul, flat(rows), flat(zip(*rows)))))) > d:
        return None  # |tr a| > d or |tr a^2| > d
    poly, seeds, chains = _hessenberg_charpoly(rows)
    ns = cyclotomic_factors(poly)
    return None if ns is None else (ns, seeds, chains)


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
        period = len(chain) - closed  # when closed, h^k e_s is chain[k mod period]
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


def cyclotomic_type(a) -> tuple[int, ...] | None:
    """The sorted n with det(x I - a) = prod Phi_n, when ``a`` has finite
    order; None when it has infinite order.

    ``a`` must be an integer matrix (ValueError otherwise).  A finite-order
    ``a`` has |tr a|, |tr a^2| <= d and chi = prod Phi_n.

    1. Lift (``_cyclotomic_lift``): det(x I - a) by Krylov chains with
       restarts (the p_m recurrence when ``a`` is already upper Hessenberg)
       modulo the Mersenne prime p = ``_P``, which is above
       ``totient_bound(d)`` for every d the work limit lets through; then
       Phi_1 and Phi_2 divided out at 1 and -1, the rest g, which must be
       palindromic, being x^s G(x + 1/x), and from G each Psi_n,
       Phi_n(x) = x^(phi(n)/2) Psi_n(x + 1/x), of degree at most half of what
       is left, while it divides modulo p; the rest must be 1 or one Psi_n.  A
       lift that is not a product of Phi_n modulo p proves infinite order
       (``cyclotomic_factors``).
    2. Certificate (``_chain_certificate``): with q = prod Phi_n over the
       distinct n of the lift, sum_k q_k a^k e_s must be exactly 0 over Z for
       each seed s of the lift, taken on its exact chain.

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

    >>> from nctori.exactlin import Matrix, companion
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
    ns, seeds, chains = lift
    q: IntPolynomial = (1,)
    for n in sorted(set(ns)):
        q = poly_mul(q, cyclotomic(n))
    return ns if _chain_certificate(chains, q, a.rows, seeds) else None
