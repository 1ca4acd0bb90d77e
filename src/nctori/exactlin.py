"""Exact dense linear algebra over the integers and rationals.

Matrices are immutable with ``int`` or ``fractions.Fraction`` entries; all
computations are exact.  Determinants use fraction-free Bareiss elimination,
rank and kernels use fraction-free integer echelon reduction with gcd
normalization (rational input is first scaled to integers by the lcm of its
denominators, ``_scaled_int_rows``), and a compound matrix comes from a
Laplace sweep over only the rows its degree reaches.  Finite order is
decided on the characteristic polynomial modulo one word-sized Mersenne
prime above ``totient_bound(d)``, taken by Hessenberg reduction, factored
on its half-degree trace polynomial (``arith.cyclotomic_factors``), and
certified over Z by one Horner pass from the reduction's restart seeds
(``cyclotomic_type``).  All pure, thread-safe.
"""

from __future__ import annotations

import itertools
import operator
import sys
from math import gcd, lcm

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


def _hessenberg_charpoly(h: list[list[int]], e: int) -> tuple[list[int], list[int]]:
    """det(x I - h) modulo the Mersenne prime p = 2^e - 1, ascending
    residues in [0, p), and the restart seeds.

    ``h`` (entries already reduced) is brought to upper Hessenberg form
    H = T^-1 h T in place by similarities (a row swap with the matching
    column swap to a nonzero pivot, then row eliminations below the
    subdiagonal, each undone on the columns), and the polynomials p_m of the
    leading m x m blocks of H follow from

        p_(m+1) = (x - h_mm) p_m - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_i,

    O(d^3) operations in all (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9).  The seeds are the s with T e_m = e_s for
    m = 0 and each m with H[m][m - 1] = 0: step k permutes columns k.. of T,
    then adds later ones to column k, and does neither when it finds no
    pivot, exactly when H[k][k - 1] ends at 0.  Modulo the blocks before it,
    each unreduced diagonal block of H is spanned by the Krylov chain of its
    first vector, so the seeds' Krylov spaces under h span F_p^d."""
    p = (1 << e) - 1
    d = len(h)
    perm = list(range(d))
    for m in range(1, d - 1):
        piv = next((i for i in range(m, d) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            perm[m], perm[piv] = perm[piv], perm[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        hm = h[m]
        inv = pow(hm[m - 1], -1, p)
        # row i -= u_i row m for each i > m, then column m += sum u_i column i
        # (the column updates commute, so they are summed and reduced once)
        us = []
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if u:
                h[i][m - 1 :] = [(x - u * y) % p for x, y in zip(h[i][m - 1 :], hm[m - 1 :])]
                us.append((i, u))
        if us:
            for row in h:
                row[m] = (row[m] + sum(u * row[i] for i, u in us)) % p
    polys = [[1]]
    for m in range(d):
        prev = polys[m]
        c = h[m][m]
        new = [(x - c * y) % p for x, y in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][m] * t % p
            if f:
                new[: i + 1] = [(x - f * y) % p for x, y in zip(new, polys[i])]
        polys.append(new)
    return polys[d], [perm[m] for m in range(d) if m == 0 or not h[m][m - 1]]


def _shift_diag(m: Matrix, c) -> Matrix:
    """m + c I for a square ``m``, without forming c I."""
    if not c:
        return m
    return Matrix((row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(m.rows)), m.ncols)


def _cyclotomic_lift(a: Matrix):
    """(ns, seeds, rows of D a, D) of step 1 of ``cyclotomic_type``; None when
    it proves infinite order.  The n are read by ``arith.cyclotomic_factors``."""
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
    poly, seeds = _hessenberg_charpoly([[x % p for x in row] for row in rows], e)
    if scale != 1:
        poly = [c * pow(scale, k - d, p) % p for k, c in enumerate(poly)]
    reciprocal = poly[::-1] == poly or poly[::-1] == [-c % p for c in poly]
    ns = cyclotomic_factors(poly, p) if reciprocal else None
    return None if ns is None else (ns, seeds, rows, scale)


def _horner(rows, coeffs, x):
    """q(a) x by Horner's rule: h = x, then h <- a h + c x for each c in ``coeffs``, those of the monic q
    below its leading one, highest first, c x added only at the seed rows, where x is nonzero; ``rows``
    holds a's rows as (columns, values) of their nonzero entries."""
    mul = operator.mul
    seeds = [(i, xi) for i, xi in enumerate(x) if xi]
    h = x
    for c in coeffs:
        h = [sum(map(mul, vals, map(h.__getitem__, cols))) for cols, vals in rows]
        for i, xi in seeds:
            h[i] += c * xi
    return h


def _lane_bound(rows, coeffs) -> int:
    """A bound on every entry of q(a) e_s for each unit vector e_s (terms as
    in ``_horner``): sum |c_k| rho^k + rho^deg q, rho the largest row sum
    of |a|."""
    rho = max((sum(map(abs, vals)) for _, vals in rows), default=0)
    return sum(abs(c) * rho**k for k, c in enumerate(reversed(coeffs))) + rho ** len(coeffs)


# Largest estimated work of the certificate in ``cyclotomic_type``, in 64-bit
# word products: deg q passes, each multiplying every nonzero entry of D a
# (``entry`` bits) by a packed vector entry (lanes of ``lane`` bits, one per
# seed).  On a 2-core Xeon VM (CPython 3.11) a word product takes 2-6 ns with
# wide entries and up to 20 ns with one-word entries: P^700 B P^-700 for
# B = C9+C7+I2 (d = 14, 1,000-digit entries) is 1.8e8 and 0.6 s, a conjugate
# of I72+C79 (d = 150, 72 seeds) 6.2e8 and 4-6 s, and P^200 B P^-200 for
# B = C25+C9+C8+I6 (d = 36, 287 digits) 1.7e9 and 10 s.
MAX_CERTIFICATE_WORK = 1_000_000_000


def cyclotomic_type(a: Matrix) -> tuple[int, ...] | None:
    """The sorted n with det(x I - a) = prod Phi_n, when ``a`` has finite
    order; None when it has infinite order.

    Rational ``a`` is scaled to D a, D the lcm of its denominators, and the
    coefficient of x^k is c_k(D a) = D^(d - k) c_k(a).  A finite-order ``a``
    has |tr a|, |tr a^2| <= d and chi = prod Phi_n, so x^d chi(1/x) = +-chi(x).

    1. Lift (``_cyclotomic_lift``): det(x I - D a) by Hessenberg reduction
       modulo p = 2^e - 1, the least listed Mersenne prime above
       ``totient_bound(d)`` that does not divide D, with the coefficient of
       x^k multiplied by D^-(d - k) mod p; then Phi_1 and Phi_2 divided out
       at 1 and -1, the rest being g = x^s G(x + 1/x), and from G each Psi_n,
       Phi_n(x) = x^(phi(n)/2) Psi_n(x + 1/x), of degree at most half of what
       is left, while it divides modulo p; the rest must be 1 or one Psi_n.  A
       lift that is not reciprocal modulo p or not a product of Phi_n modulo
       p proves infinite order (``arith.cyclotomic_factors``).
    2. Certificate: with q = prod Phi_n over the distinct n of the lift and
       q~_k = D^(deg q - k) q_k, so that q~(D a) = D^(deg q) q(a), Horner's
       rule on x = sum_t X^t e_S[t] must end at exactly 0 over Z, the S[t]
       being the restart seeds of the Hessenberg reduction.  X = 2^w with
       2^(w - 1) above every entry of each q~(D a) e_S[t], so an entry of
       q~(D a) x is zero only when each of its base-X digits is.

    Proof: ker q(a) is a-invariant, so step 2 puts the seeds' Krylov spaces,
    which span F_p^d and so Q^d, in it: q(a) = 0, ``a`` is semisimple with
    roots of unity as eigenvalues, and chi = prod Phi_n^f_n over Z for the
    n of the lift.  Every n tried is below p, so modulo p the Phi_n are
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
    ns, seeds, rows, scale = lift
    q: IntPolynomial = (1,)
    for n in sorted(set(ns)):
        q = poly_mul(q, cyclotomic(n))
    deg = len(q) - 1
    coeffs = [q[k] * scale ** (deg - k) for k in range(deg - 1, -1, -1)]
    sparse = [(list(itertools.compress(range(len(rows)), row)), list(itertools.compress(row, row))) for row in rows]
    lane = _lane_bound(sparse, coeffs).bit_length() + 1
    entry = max(map(abs, itertools.chain.from_iterable(rows)), default=0).bit_length()
    work = deg * sum(map(len, (cols for cols, _ in sparse))) * -(-lane * len(seeds) // 64) * -(-entry // 64)
    if work > MAX_CERTIFICATE_WORK:
        raise ValueError(
            f"the finite-order certificate of this {len(rows)} x {len(rows)} matrix needs about {work} "
            f"word products, past the limit MAX_CERTIFICATE_WORK = {MAX_CERTIFICATE_WORK}"
        )
    x = [0] * len(rows)
    for t, s in enumerate(seeds):
        x[s] = 1 << (lane * t)
    return None if any(_horner(sparse, coeffs, x)) else ns


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
