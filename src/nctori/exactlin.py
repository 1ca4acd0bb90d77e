"""Exact dense linear algebra over the integers and rationals.

Matrices (``finite.Matrix``, imported here) are immutable with ``int`` or
``fractions.Fraction`` entries; all computations are exact.  Determinants
use fraction-free Bareiss elimination; rank, kernels and reduced bases use
one fraction-free integer echelon with gcd normalization (rational input is
first scaled to integers by the lcm of its denominators,
``_scaled_int_rows``), and a compound matrix comes from a Laplace sweep over
only the rows its degree reaches.  Finite order is
decided in ``finite``; ``order`` and ``rational_block_form`` read it.  All
pure, thread-safe.
"""

from __future__ import annotations

import itertools
import operator
import sys
from math import gcd, lcm

from .arith import IntPolynomial, cyclotomic
from .finite import Matrix, _cyclotomic_lift, _integral, cyclotomic_type


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


def _shift_diag(m: Matrix, c) -> Matrix:
    """m + c I for a square ``m``, without forming c I."""
    if not c:
        return m
    return Matrix((row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(m.rows)), m.ncols)


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
    """Integer P and B = block_diag(companion(Phi_n) for n in
    cyclotomic_type(a)) with a @ P == P @ B and P invertible over Q; None
    when ``a`` has infinite order.

    The n are those of the lift in ``cyclotomic_type`` (None when it proves
    infinite order; ValueError when ``a`` is not an integer matrix).
    P lists chains v, a v, ..., a^(phi(n) - 1) v, v in ker Phi_n(a), on
    which ``a`` acts as companion(Phi_n); Phi_n is irreducible, so a chain
    from a kernel vector outside those taken is independent of them.  Chains
    lie in the kernels, so if they fill Q^d the distinct Phi_n annihilate
    ``a``: it is semisimple, of finite order, and the lift is its
    characteristic polynomial.  A semisimple ``a`` fills them, so if they
    fall short the answer is None.  ArithmeticError is raised only if the
    final exact check fails.

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
    leaves exactly those vectors, up to scale.  The echelon is
    ``_echelon_int`` on the reversed rows, and one back pass clears each
    pivot column from the rows above it, last pivot first.
    """
    rows = [row[::-1] for row in _scaled_int_rows(Matrix(vectors))[0]]
    pivots = _echelon_int(rows)
    if len(pivots) < len(rows):
        raise ValueError("reduced_basis requires independent vectors")
    for r, c in reversed(pivots):
        rr = rows[r]
        pv = rr[c]
        for i in range(r):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = _content_free([x * pv - f * y for x, y in zip(ri, rr)])
    basis = []
    for r, c in reversed(pivots):
        row = _content_free(rows[r][::-1])
        basis.append(tuple(row) if rows[r][c] > 0 else tuple(-x for x in row))
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
