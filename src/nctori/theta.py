"""Symbolic skew-symmetric matrices and invariant-form existence.

A commutation matrix is modeled as Theta = A_0 + sum_k A_k * t_k with
rational skew coefficient matrices and formal symbols t_k that stand for
reals with {1, t_1, ..., t_s} linearly independent over Q.  Under that
reading, nondegeneracy (no nonzero integer vector x with Theta x integral)
becomes a decidable exact rank condition, and existence of a nondegenerate
invariant form for a matrix group generator reduces to a common-kernel check
on the invariant space.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .exactlin import (
    Matrix,
    _components,
    kernel_basis,
    rational_block_form,
    reduced_basis,
)
from .finite import _integral
from .record import Frozen, set_field


def _is_skew(m: Matrix) -> bool:
    return m.is_square and m.transpose() == -m


class SymbolicSkew(Frozen):
    """Skew form A_0 + sum of A_k * symbol_k over Q-independent symbols."""

    __slots__ = ("dim", "rational_part", "symbol_parts")

    def __init__(self, dim: int, rational_part: Matrix, symbol_parts: tuple[tuple[str, Matrix], ...] = ()):
        if rational_part.nrows != dim or rational_part.ncols != dim:
            raise ValueError("rational part has wrong shape")
        if not _is_skew(rational_part):
            raise ValueError("rational part must be skew-symmetric")
        seen = set()
        for name, mat in symbol_parts:
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
            if mat.nrows != dim or mat.ncols != dim:
                raise ValueError(f"coefficient of {name!r} has wrong shape")
            if not _is_skew(mat):
                raise ValueError(f"coefficient of {name!r} must be skew-symmetric")
        set_field(self, "dim", dim)
        set_field(self, "rational_part", rational_part)
        set_field(self, "symbol_parts", symbol_parts)

    @classmethod
    def from_symbol_matrices(cls, matrices) -> "SymbolicSkew":
        """One fresh symbol per coefficient matrix, θ1, θ2, ..., zero rational part."""
        matrices = list(matrices)
        if not matrices:
            raise ValueError("need at least one coefficient matrix")
        d = matrices[0].nrows
        return cls(
            dim=d,
            rational_part=Matrix.zero(d, d),
            symbol_parts=tuple((f"θ{k + 1}", m) for k, m in enumerate(matrices)),
        )

    def coefficient_matrices(self) -> tuple[Matrix, ...]:
        return tuple(m for _, m in self.symbol_parts)

    def entry(self, i: int, j: int) -> str:
        """Human-readable entry: rational constant plus symbol terms, written
        as the ``PairingValue`` of that entry."""
        terms = tuple((name, Fraction(mat.rows[i][j])) for name, mat in self.symbol_parts if mat.rows[i][j])
        return str(PairingValue(Fraction(self.rational_part.rows[i][j]), terms))


class PairingValue(Frozen):
    """Exact value of the pairing x . Theta . y: a rational constant plus
    rational coefficients on the symbols."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant: Fraction, terms: tuple[tuple[str, Fraction], ...] = ()):
        set_field(self, "constant", constant)
        set_field(self, "terms", terms)

    def __str__(self):
        parts = [str(self.constant)] if self.constant or not self.terms else []
        for name, c in self.terms:
            if c == 1:
                s = name
            elif c == -1:
                s = f"-{name}"
            else:
                s = f"{c}*{name}"
            if parts and not s.startswith("-"):
                s = "+" + s
            parts.append(s)
        return "".join(parts) if parts else "0"


def _bilinear(mat: Matrix, x, y) -> Fraction:
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = mat.rows[i]
            total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
    return Fraction(total)


def pairing(theta: SymbolicSkew, x, y) -> PairingValue:
    """The cocycle exponent of (x, y): the value x . Theta . y carried
    exactly as an element of Q + sum Q*t_k."""
    x, y = list(x), list(y)
    if len(x) != theta.dim or len(y) != theta.dim:
        raise ValueError("vector dimension mismatch")
    const = _bilinear(theta.rational_part, x, y)
    terms = []
    for name, mat in theta.symbol_parts:
        c = _bilinear(mat, x, y)
        if c:
            terms.append((name, c))
    return PairingValue(const, tuple(terms))


def is_invariant(theta: SymbolicSkew, a: Matrix) -> bool:
    """True when a^t Theta a = Theta, coefficient matrix by coefficient matrix."""
    if a.nrows != theta.dim or a.ncols != theta.dim:
        raise ValueError("matrix dimension mismatch")
    at = a.transpose()
    if at @ theta.rational_part @ a != theta.rational_part:
        return False
    return all(at @ mat @ a == mat for _, mat in theta.symbol_parts)


def _block_solutions(a: Matrix, positions: list[tuple[int, int]]) -> list[list[tuple[int, int, int]]]:
    """Skew solutions of a^t S a = S supported on ``positions``, each (i, j)
    standing for the pair of entries S[i][j] = -S[j][i].

    Row (i, j) is sum over k, l of a[k][i] a[l][j] S[k][l] - S[i][j]: the
    coefficient of (k, l) is a[k][i] a[l][j] - a[l][i] a[k][j].  It is built
    from the nonzero entries of columns i and j only; a product with (k, l)
    not a position lands on (l, k) with the opposite sign.  The positions
    cover one or two whole support components, so every such (l, k) is one.
    """
    if not positions:
        return []
    index = {pos: t for t, pos in enumerate(positions)}
    support = {
        c: [(k, row[c]) for k, row in enumerate(a.rows) if row[c]] for c in set(itertools.chain(*positions))
    }
    rows = []
    for t, (i, j) in enumerate(positions):
        row = [0] * len(positions)
        row[t] = -1
        for k, x in support[i]:
            for l, y in support[j]:
                if k != l:
                    u = index.get((k, l))
                    if u is None:
                        row[index[l, k]] -= x * y
                    else:
                        row[u] += x * y
        rows.append(row)
    return [
        [(pos[0], pos[1], v) for pos, v in zip(positions, vec) if v]
        for vec in kernel_basis(Matrix(rows, len(positions)))
    ]


def _component_solutions(a: Matrix, comps: list[list[int]]):
    """Solutions of a^t S a = S, one subsystem per pair of support components:
    the upper triangle of a diagonal block, or a whole off-diagonal block."""
    for ci, p in enumerate(comps):
        yield from _block_solutions(a, list(itertools.combinations(p, 2)))
        for q in comps[ci + 1 :]:
            yield from _block_solutions(a, list(itertools.product(p, q)))


def _skew_matrix(d: int, entries) -> Matrix:
    """The skew matrix with the given (i, j, value) upper-triangle entries."""
    rows = [[0] * d for _ in range(d)]
    for i, j, v in entries:
        rows[i][j] = v
        rows[j][i] = -v
    return Matrix(rows, ncols=d)


def _transported_space(p: Matrix, b: Matrix) -> tuple[Matrix, ...]:
    """invariant_space(a) from a^t @ p == p @ b: with R = p^t, R a = b^t R,
    so S = R^t S' R = p S' p^t is invariant under ``a`` exactly when S' is
    invariant under b^t.  The block form decouples S' into small subsystems;
    the transported vectors span the solution space of the direct system, and
    ``reduced_basis`` turns them into the basis its kernel would give."""
    d = p.nrows
    bt = b.transpose()
    positions = [(k, l) for k in range(d) for l in range(k + 1, d)]
    pcols = list(zip(*p.rows))
    vectors = []
    for sol in _component_solutions(bt, _components(bt)):
        # columns of p S' from the sparse S', then (p S' p^t)[k][l] as a dot product
        tcols = [(0,) * d] * d
        for i, j, v in sol:
            tcols[j] = [x + v * y for x, y in zip(tcols[j], pcols[i])]
            tcols[i] = [x - v * y for x, y in zip(tcols[i], pcols[j])]
        trows = list(zip(*tcols))
        vectors.append(tuple(sum(map(operator.mul, trows[k], p.rows[l])) for k, l in positions))
    return tuple(
        _skew_matrix(d, ((*pos, v) for pos, v in zip(positions, vec) if v))
        for vec in reduced_basis(vectors)
    )


def invariant_space(a: Matrix) -> tuple[Matrix, ...]:
    """Basis of the rational vector space {S skew : a^t S a = S}.

    Solved as a linear system in the upper-triangle entries.  When ``a`` is
    block diagonal the system decouples into one subsystem per pair of
    support components, which keeps the elimination small.  A finite-order
    integer ``a`` with one support component that is not its own rational
    block form is solved in that block form and the basis carried back;
    infinite order, rational entries and several components take the direct
    solve.  Either way the basis is the one the direct system's kernel
    gives: primitive integer matrices, deterministic in order.

    >>> invariant_space(Matrix([[0, -1], [1, -1]]))
    (Matrix(2x2: 0 1; -1 0),)
    """
    if not a.is_square:
        raise ValueError("invariant_space requires a square matrix")
    d = a.nrows
    comps = _components(a)
    if len(comps) == 1 and _integral(a.rows):
        form = rational_block_form(a.transpose())
        if form is not None and form[1] != a:
            return _transported_space(*form)
    return tuple(_skew_matrix(d, sol) for sol in _component_solutions(a, comps))


def is_nondegenerate(theta: SymbolicSkew) -> bool:
    """True when no nonzero integer vector x has Theta x integral.

    Because {1, t_k} are independent over Q, Theta x integral forces
    A_k x = 0 for every k >= 1, and any nonzero rational common-kernel
    vector scales to an integer witness; so the condition is exactly that
    the symbol coefficient matrices have no common kernel vector but 0.
    With no symbols that common kernel is all of Q^d.
    """
    # the rows of ``common`` span the common kernel of the matrices read so
    # far; c @ common lies in ker m exactly when c lies in ker(m @ common^t)
    common = Matrix.identity(theta.dim)
    for m in theta.coefficient_matrices():
        if not common.nrows:
            break
        common = Matrix(kernel_basis(m @ common.transpose()), common.nrows) @ common
    return not common.nrows


def nondegenerate_witness(basis, d: int) -> tuple[bool, SymbolicSkew | None]:
    """Decide from a basis of the invariant space of a d x d matrix whether
    a nondegenerate invariant skew form exists, returning a symbolic witness
    when it does.

    The witness puts one fresh symbol on each basis matrix (maximal
    genericity), so existence is exactly the condition that the basis
    matrices have trivial common kernel.
    """
    if not basis:
        return (d == 0, None)
    theta = SymbolicSkew.from_symbol_matrices(basis)
    if is_nondegenerate(theta):
        return True, theta
    return False, None


def nondegenerate_invariant_exists(a: Matrix) -> tuple[bool, SymbolicSkew | None]:
    """``nondegenerate_witness`` on the invariant space of a finite-order
    integer matrix."""
    return nondegenerate_witness(invariant_space(a), a.nrows)
