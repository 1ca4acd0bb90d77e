"""Exact dense linear algebra over the integers and rationals.

Matrices are immutable with ``int`` or ``fractions.Fraction`` entries; all
computations are exact.  Determinants use fraction-free Bareiss elimination,
rank and kernels use fraction-free integer echelon reduction with gcd
normalization (rational input rows are scaled to integers first).  Everything
is pure and safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, gcd, lcm

from .arith import IntPolynomial, cyclotomic, poly_divmod, totient


def _norm_entry(x):
    if type(x) is int:  # the common case; skips the ABC check in isinstance(x, Fraction)
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix. Entries are exact (int, or Fraction in lowest terms)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(tuple(_norm_entry(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        else:
            ncols = 0 if ncols is None else ncols
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_rows(cls, rows: tuple, ncols: int) -> "Matrix":
        # trusted fast path: rows already a rectangular tuple of int tuples
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        return self

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols=ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        bt = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        return Matrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.rows),
            ncols=other.ncols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            ncols=self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in r) for r in self.rows), ncols=self.ncols)

    def __rmul__(self, scalar) -> "Matrix":
        scalar = _norm_entry(scalar)
        return Matrix(tuple(tuple(scalar * x for x in r) for r in self.rows), ncols=self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)) if self.rows else (), ncols=self.nrows)

    def pow(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("pow requires a square matrix")
        if k < 0:
            raise ValueError("negative powers not supported")
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


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
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p[i]
    return Matrix(rows)


def charpoly(a: Matrix) -> IntPolynomial:
    """Characteristic polynomial det(x I - a), ascending coefficients.

    Faddeev-LeVerrier: M_1 = I, then for k = 1..d the coefficient of
    x^(d-k) is c = -tr(a M_k) / k and M_{k+1} = a M_k + c I.  For integer
    input every division is exact, since every c is an integer.

    >>> charpoly(companion(cyclotomic(9))) == cyclotomic(9)
    True
    """
    if not a.is_square:
        raise ValueError("charpoly requires a square matrix")
    d = a.nrows
    ident = Matrix.identity(d)
    coeffs = [0] * d + [1]
    am = a
    for k in range(1, d + 1):
        c = _norm_entry(Fraction(-sum(am.rows[i][i] for i in range(d)), k))
        coeffs[d - k] = c
        if k < d:
            am = a @ (am + c * ident)
    return tuple(coeffs)


def cyclotomic_type(a: Matrix) -> tuple[int, ...] | None:
    """The sorted n with charpoly(a) = prod Phi_n, when ``a`` has finite order;
    None when it has infinite order.

    A finite-order matrix is diagonalizable with root-of-unity eigenvalues,
    so its characteristic polynomial is such a product and a^L = I for
    L = lcm(n); conversely both together give order exactly L.  The power
    check is what rejects a unipotent [[1, 1], [0, 1]], whose polynomial is
    Phi_1^2.  Only n with phi(n) <= the remaining degree r are tried, and
    phi(n) >= sqrt(n / 2) ends the search at n > 2 r^2 + 2.

    >>> cyclotomic_type(-Matrix.identity(3))
    (2, 2, 2)
    >>> cyclotomic_type(Matrix([[1, 1], [0, 1]])) is None
    True
    """
    poly = charpoly(a)
    ns: list[int] = []
    n = 1
    while len(poly) > 1 and n <= 2 * (len(poly) - 1) ** 2 + 2:
        if totient(n) < len(poly):
            quot, rem = poly_divmod(poly, cyclotomic(n))
            while not rem:
                ns.append(n)
                poly = quot
                quot, rem = poly_divmod(poly, cyclotomic(n))
        n += 1
    if len(poly) > 1 or a.pow(lcm(*ns, 1)) != Matrix.identity(a.nrows):
        return None
    return tuple(ns)


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
    for b in blocks:
        if not b.is_square:
            raise ValueError("block_diag blocks must be square")
    total = sum(b.nrows for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[offset + i][offset : offset + b.nrows] = row
        offset += b.nrows
    return Matrix(rows, ncols=total)


def _scaled_int_rows(m: Matrix) -> tuple[list[list[int]], Fraction]:
    """Integer row copies of ``m``; returns (rows, product of the row scalings)."""
    rows = []
    scale = Fraction(1)
    for row in m.rows:
        mult = lcm(*(x.denominator for x in row if isinstance(x, Fraction)), 1)
        if mult == 1:
            rows.append(list(row))
        else:
            rows.append([int(x * mult) for x in row])
            scale *= mult
    return rows, scale


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix (mutates rows)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
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
    value = _det_int(rows)
    return value if scale == 1 else Fraction(value) / scale


def _echelon_int(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Fraction-free row echelon via cross-multiplication with gcd reduction.

    Mutates ``rows``; returns the pivot positions [(row, col), ...] in order.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rr = rows[r]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                ri = rows[i]
                new = [x * pv - f * y for x, y in zip(ri, rr)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                    if g == 1:
                        break
                rows[i] = new if g <= 1 else [x // g for x in new]
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
    rows, _ = _scaled_int_rows(m)
    return len(_echelon_int(rows))


def kernel_basis(m: Matrix) -> list[tuple[int, ...]]:
    """Basis of the right rational null space {x : m @ x = 0}.

    Each vector is returned as a primitive integer tuple (denominators
    cleared, gcd one, free coordinate positive), one per free column of the
    echelon form.  This is also how integer lattices are saturated here:
    the primitive kernel vectors span ker over Q and are integral.
    """
    rows, _ = _scaled_int_rows(m)
    pivots = _echelon_int(rows)
    ncols = m.ncols
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        x: list[Fraction | int] = [0] * ncols
        x[fc] = 1
        for r, c in reversed(pivots):
            if c > fc:
                continue
            s = sum(rows[r][j] * x[j] for j in range(c + 1, ncols) if x[j])
            x[c] = Fraction(-s, rows[r][c])
        mult = lcm(*(v.denominator for v in x if isinstance(v, Fraction)), 1)
        ints = [int(v * mult) for v in x]
        g = 0
        for v in ints:
            g = gcd(g, v)
        basis.append(tuple(v // g for v in ints))
    return basis


def _small_det(sub) -> int:
    """Determinant of a small integer matrix given as a list of row tuples."""
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    if n == 2:
        (a, b), (c, d) = sub
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = sub
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    for row in sub:
        if not any(row):
            return 0
    return _det_int([list(row) for row in sub])


def compound(a: Matrix, m: int) -> Matrix:
    """Compound matrix of the m-th exterior power of ``a``.

    Indexed by the sorted m-element subsets of the row/column indices in
    lexicographic order; entry (S, T) is the minor det(a[S, T]).  Intended
    for d <= 12 (binomial growth); larger matrices should go through the
    rotation-spectrum route instead.
    """
    if not a.is_square:
        raise ValueError("compound requires a square matrix")
    if not 0 <= m <= a.nrows:
        raise ValueError(f"compound degree {m} out of range for dimension {a.nrows}")
    subsets = list(itertools.combinations(range(a.nrows), m))
    if m == 0:
        return Matrix(((1,),))
    getters = [operator.itemgetter(*t) for t in subsets]
    if m == 1:
        picked = [[(g(row),) for g in getters] for row in a.rows]
    else:
        picked = [[g(row) for g in getters] for row in a.rows]
    out = []
    for s in subsets:
        chosen = [picked[i] for i in s]
        out.append(tuple(_small_det([c[tj] for c in chosen]) for tj in range(len(subsets))))
    return Matrix._from_rows(tuple(out), comb(a.nrows, m))
