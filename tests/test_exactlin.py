import inspect
import itertools
import random
import sys
import time
from fractions import Fraction
from math import comb, lcm
from operator import mul

import pytest

from nctori import exactlin, finite
from nctori.arith import cyclotomic, poly_mul, totient, totient_bound
from nctori.exactlin import (
    _components,
    _shift_diag,
    Matrix,
    block_diag,
    companion,
    compound,
    det,
    kernel_basis,
    order,
    rank,
    rational_block_form,
    reduced_basis,
)
from nctori.classify import analyze_action
from nctori.finite import (
    MAX_LIFT_WORK,
    _cyclotomic_lift,
    _hessenberg_charpoly,
    _trace_terms,
    cyclotomic_factors,
    cyclotomic_type,
    trace_form,
)
from nctori.invariants import (
    Cyclotomic,
    Identity,
    NegCyclotomic,
    block_order,
    free_outside_origin,
    invariant_ranks,
    invariant_ranks_molien,
    parse_block_spec,
    realize,
    spec_dim,
)
from oracles import (
    annihilated_by_cyclotomics,
    conjugate_in_place,
    cyclotomic_factors_by_division,
    enumerate_specs,
    matrix_pow,
    random_ops,
)


def test_companion_one_by_one():
    assert companion((1, 1)) == Matrix([[-1]])


def test_companion_phi3_layout():
    assert companion(cyclotomic(3)) == Matrix([[0, -1], [1, -1]])


def test_companion_phi9_last_column():
    c9 = companion(cyclotomic(9))
    assert c9.nrows == 6
    assert [c9.rows[i][5] for i in range(6)] == [-1, 0, 0, -1, 0, 0]
    for i in range(1, 6):
        assert c9.rows[i][i - 1] == 1
    for i in range(6):
        for j in range(5):
            assert c9.rows[i][j] == (1 if j == i - 1 else 0)


def test_companion_rejects_bad_input():
    with pytest.raises(ValueError):
        companion((2, 3))  # not monic
    with pytest.raises(ValueError):
        companion((1,))  # degree 0


def test_order_examples():
    assert order(companion(cyclotomic(9)), 100) == 9
    assert order(Matrix.identity(5), 10) == 1
    assert order(-Matrix.identity(3), 10) == 2
    with pytest.raises(ValueError, match="bound must be positive"):
        order(Matrix.identity(2), 0)


def test_order_not_finite():
    assert order(Matrix([[1, 1], [0, 1]]), 50) is None
    d = 30
    shear = Matrix([[int(j in (i, i + 1)) for j in range(d)] for i in range(d)])
    assert order(shear, 10**9) is None


def test_order_rejects_non_square():
    with pytest.raises(ValueError):
        order(Matrix([[1, 0]]), 10)


def test_rank_det_kernel_examples():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert kernel_basis(Matrix([[1, 2], [2, 4]])) == [(-2, 1)]
    assert det(Matrix.identity(4)) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(Matrix([[1, 2]]))


def test_block_diag_examples():
    assert block_diag([Matrix([[-1]]), Matrix.identity(2)]) == Matrix(
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    two = block_diag([companion(cyclotomic(3)), companion(cyclotomic(4))])
    assert two.nrows == 4
    assert order(two, 50) == lcm(3, 4)
    empty = block_diag([])
    assert empty.nrows == 0 and empty.ncols == 0
    with pytest.raises(ValueError, match="block_diag blocks must be square"):
        block_diag([Matrix.identity(2), Matrix([[1, 2]])])


def test_compound_trivial_cases():
    assert compound(Matrix.identity(4), 2) == Matrix.identity(6)
    a = Matrix([[1, 2], [3, 4]])
    assert compound(a, 2) == Matrix([[det(a)]])
    assert compound(Matrix([[2, 0], [0, 3]]), 1) == Matrix([[2, 0], [0, 3]])
    with pytest.raises(ValueError, match="compound requires a square matrix"):
        compound(Matrix([[1, 2]]), 1)
    assert compound(a, 0) == Matrix([[1]])
    with pytest.raises(ValueError):
        compound(a, 3)


def _random_matrix(rng, d):
    return Matrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])


def test_compound_multiplicative():
    rng = random.Random(20240817)
    for _ in range(25):
        d = rng.randint(1, 5)
        m = rng.randint(0, d)
        a, b = _random_matrix(rng, d), _random_matrix(rng, d)
        assert compound(a @ b, m) == compound(a, m) @ compound(b, m)


def test_compound_entries_are_minors():
    # every entry against Bareiss on the submatrix a[S, T], an independent route
    rng = random.Random(6)
    dense = Matrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
    rational = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)] for _ in range(5)])
    for a in (dense, rational):
        d = a.nrows
        for m in range(d + 1):
            c = compound(a, m)
            subsets = list(itertools.combinations(range(d), m))
            for i, rows in enumerate(subsets):
                for j, cols in enumerate(subsets):
                    minor = Matrix([[a.rows[r][t] for t in cols] for r in rows], ncols=m)
                    assert c.rows[i][j] == det(minor), (m, rows, cols)


def test_compound_determinant_power():
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randint(1, 5)
        m = rng.randint(1, d)
        a = _random_matrix(rng, d)
        assert det(compound(a, m)) == det(a) ** comb(d - 1, m - 1)


def test_order_of_block_diag_is_lcm():
    rng = random.Random(5)
    pool = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]
    for _ in range(15):
        n1, n2 = rng.choice(pool), rng.choice(pool)
        a = companion(cyclotomic(n1))
        b = companion(cyclotomic(n2))
        assert order(block_diag([a, b]), 200) == lcm(order(a, 50), order(b, 50))


def test_rank_plus_nullity():
    rng = random.Random(42)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = Matrix([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == ncols
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m.rows)


def test_rational_matrices():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert det(m) == 0
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert sum(m.rows[0][j] * v[j] for j in range(2)) == 0
    m2 = Matrix([[Fraction(1, 2), 0], [0, 1]])
    assert det(m2) == Fraction(1, 2)
    assert rank(m2) == 2


def test_matrix_arithmetic_and_pow():
    a = Matrix([[1, 1], [0, 1]])
    assert matrix_pow(a, 5) == Matrix([[1, 5], [0, 1]])
    assert matrix_pow(a, 0) == Matrix.identity(2)
    assert -a == Matrix([[-1, -1], [0, -1]])
    assert a.transpose() == Matrix([[1, 0], [1, 1]])


def test_transpose_swaps_the_shape_and_is_an_involution():
    for nrows, ncols in ((0, 3), (3, 0), (0, 0), (2, 5)):
        m = Matrix.zero(nrows, ncols) if 0 in (nrows, ncols) else Matrix([range(k, k + ncols) for k in range(nrows)])
        t = m.transpose()
        assert (t.nrows, t.ncols) == (ncols, nrows), (nrows, ncols)
        assert t.transpose() == m, (nrows, ncols)


def test_matrix_fields_refuse_assignment_and_deletion():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        m.rows = ((0, 0), (0, 0))
    with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
        del m.rows
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        m.extra = 1
    assert m.rows == ((1, 2), (3, 4)) and m == Matrix([[1, 2], [3, 4]])
    assert hash(m) == hash(Matrix([[1, 2], [3, 4]]))


def test_mixed_int_fraction_results_are_normalized():
    half = Matrix([[Fraction(1, 2), 1], [0, Fraction(3, 2)]])
    product = half @ Matrix([[2, 0], [0, 2]])
    assert all(type(x) is int for row in product.rows for x in row), product
    assert product == Matrix([[1, 2], [0, 3]])
    assert (-half).rows[0] == (Fraction(-1, 2), -1)
    assert (half @ Matrix.identity(2)).rows[1] == (0, Fraction(3, 2))
    assert half.transpose().rows == ((Fraction(1, 2), 0), (1, Fraction(3, 2)))


def test_rational_block_form_conjugates_to_companions(unimodular_pair):
    rng = random.Random(2016)
    for text in ("C5+C3", "C7+C7", "C3+I3", "negC9+C4+I1", "C8+C8+C8", "C12+C2+C2+I2"):
        block = realize(parse_block_spec(text))
        p, q = unimodular_pair(rng, block.nrows, 3 * block.nrows)
        a = p @ block @ q
        p, b = rational_block_form(a)
        ns = cyclotomic_type(a)
        assert b == block_diag([companion(cyclotomic(n)) for n in ns]), text
        assert a @ p == p @ b and rank(p) == a.nrows, text
        assert all(type(x) is int for row in p.rows for x in row), text


def test_rational_block_form_rejects_infinite_order():
    hyperbolic = Matrix([[2, 1], [1, 1]])
    assert rational_block_form(hyperbolic) is None
    assert rational_block_form(block_diag([hyperbolic, companion(cyclotomic(5))])) is None
    # characteristic polynomials Phi_1^4, Phi_3^2, Phi_3^2 ([[C, I], [0, C]])
    # and Phi_1^2, but not semisimple: the chains fall short of Q^d, and the
    # answer is None, not an error
    shear = Matrix([[int(j in (i, i + 1)) for j in range(4)] for i in range(4)])
    c3 = companion(cyclotomic(3))
    jordan = Matrix([[0, -1, 1, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
    for m in (shear, jordan, _nilpotent_extension(c3), Matrix([[1, 1], [0, 1]])):
        assert _cyclotomic_lift(m) is not None, m
        assert cyclotomic_type(m) is None and rational_block_form(m) is None, m


def test_rational_block_form_runs_no_finite_order_certificate(monkeypatch, unimodular_pair):
    # repeated factors: cyclotomic_type would certify q(a) = 0; the chains
    # filling Q^d already prove it
    def no_certificate(*args):
        raise AssertionError("rational_block_form must not run the seed certificate")

    monkeypatch.setattr(finite, "_chain_certificate", no_certificate)
    block = realize(parse_block_spec("C7+C7+C3"))
    p, q = unimodular_pair(random.Random(7), block.nrows, 3 * block.nrows)
    a = p @ block @ q
    p, b = rational_block_form(a)
    assert b == block_diag([companion(cyclotomic(n)) for n in (3, 7, 7)]) and a @ p == p @ b


def test_reduced_basis_is_kernel_basis_of_any_spanning_set():
    rng = random.Random(43)
    for _ in range(40):
        ncols = rng.randint(2, 8)
        m = Matrix([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, ncols))])
        basis = kernel_basis(m)
        if not basis:
            continue
        k = len(basis)
        # an invertible recombination: unit upper triangular, then a row shuffle
        mix = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(k)] for i in range(k)]
        rng.shuffle(mix)
        spanning = [tuple(sum(c * v[t] for c, v in zip(row, basis)) for t in range(ncols)) for row in mix]
        assert reduced_basis(spanning) == basis
        assert reduced_basis([tuple(Fraction(x, 3) for x in v) for v in spanning]) == basis
    # wider spaces with 30-digit entries, a third of them zero: the kernel of
    # the spanning set's own kernel is their span
    for _ in range(20):
        ncols = rng.randint(10, 40)
        k = rng.randint(1, min(12, ncols - 1))
        spanning = [tuple(rng.choice((0, 1, 1)) * rng.randint(-(10**30), 10**30) for _ in range(ncols)) for _ in range(k)]
        if rank(Matrix(spanning)) < k:
            continue
        basis = kernel_basis(Matrix(kernel_basis(Matrix(spanning)), ncols=ncols))
        assert reduced_basis(spanning) == basis
        assert reduced_basis([tuple(Fraction(x, 3) for x in v) for v in spanning]) == basis
    assert reduced_basis([]) == []
    for dependent in ([(1, 0), (2, 0)], [(0, 0, 0)], [(1, 0, 2), (0, 0, 0)], [(3, -1, 4), (3, -1, 4)]):
        with pytest.raises(ValueError, match="reduced_basis requires independent vectors"):
            reduced_basis(dependent)


def test_reduced_basis_runs_one_echelon(monkeypatch):
    calls = []
    echelon = exactlin._echelon_int

    def counting(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(exactlin, "_echelon_int", counting)
    inputs = ([], [(0, 1, 2)], [(1, 0, 2, 3), (0, 1, -1, 5)], [(Fraction(1, 2), 3, 0, 1), (4, 0, 0, 1), (0, 0, 1, 1)])
    for n, vectors in enumerate(inputs, 1):
        reduced_basis(vectors)
        assert len(calls) == n, vectors


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[1.5]])
    with pytest.raises(ValueError, match="ncols does not match row width"):
        Matrix([[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="shape mismatch: 1x2 @ 1x2"):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def _faddeev_leverrier(a):
    """det(x I - a) by Faddeev-LeVerrier, a reference independent of the
    lift's Krylov chains and Hessenberg recurrence: M_1 = I,
    c_(d-k) = -tr(a M_k) / k, M_(k+1) = a M_k + c_(d-k) I."""
    d = a.nrows
    coeffs = [0] * d + [1]
    m = Matrix.identity(d)
    for k in range(1, d + 1):
        am = a @ m
        c = Fraction(-sum(am.rows[i][i] for i in range(d)), k)
        coeffs[d - k] = c.numerator if c.denominator == 1 else c
        m = _shift_diag(am, c)
    return tuple(coeffs)


def test_charpoly_matches_independent_references():
    rng = random.Random(2022)
    hyperbolic = Matrix([[2, 1], [1, 1]])
    # dense at d = 30: one support component, far from upper Hessenberg
    wide = random.Random(30)
    dense = Matrix([[wide.randint(-9, 9) for _ in range(30)] for _ in range(30)])
    assert len(_components(dense)) == 1 and any(any(dense.rows[i][: i - 1]) for i in range(2, 30))
    cases = [dense]
    for d in range(1, 15):
        perm = rng.sample(range(d), d)
        cases += [
            Matrix([[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]),
            Matrix([[rng.randint(-5, 5) if rng.random() < 0.2 else 0 for _ in range(d)] for _ in range(d)]),
            # zero columns below the diagonal force the pivot swap
            Matrix([[rng.choice((-1, 1)) * int(j == perm[i]) for j in range(d)] for i in range(d)]),
            Matrix.zero(d, d),
            Matrix([[rng.randint(-10**20, 10**20) for _ in range(d)] for _ in range(d)]),
            Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)] for _ in range(d)]),
        ]
        if d >= 3:
            rest = Matrix([[rng.randint(-2, 2) for _ in range(d - 2)] for _ in range(d - 2)])
            cases.append(block_diag([hyperbolic, rest]))
    p = 2**19 - 1
    for a in cases:
        d = a.nrows
        # rational input goes through D a, D the lcm of the denominators
        scale = lcm(*(x.denominator for row in a.rows for x in row if type(x) is not int), 1)
        b = Matrix([[scale * x for x in row] for row in a.rows])
        residues, _, _ = _hessenberg_charpoly(b.rows)
        assert residues == [c % p for c in _faddeev_leverrier(b)], a
        for t in range(d + 1):
            value = sum(c * t**k for k, c in enumerate(residues))
            assert (value - det(_shift_diag(-b, t))) % p == 0, (a, t)
    # the 10^20 entries at d = 14 are reduced modulo 2^19 - 1 first
    big = cases[-3]
    assert big.nrows == 14 and max(abs(x) for row in big.rows for x in row) > 10**19
    with pytest.raises(ValueError, match="cyclotomic_type requires a square matrix"):
        cyclotomic_type(Matrix([[1, 2]]))


def test_charpoly_takes_no_matrix_products(monkeypatch, unimodular_pair):
    # the Krylov chains take one packed matrix-vector product per vector;
    # Faddeev-LeVerrier would need d - 1 matrix products
    block = realize(parse_block_spec("C9+C7+C5+I2"))
    p, q = unimodular_pair(random.Random(18), block.nrows, 3 * block.nrows)
    a = p @ block @ q
    assert a.nrows == 18

    def no_products(self, other):
        raise AssertionError("the lift must not multiply matrices")

    monkeypatch.setattr(Matrix, "__matmul__", no_products)
    assert _cyclotomic_lift(a)[0] == (1, 1, 5, 7, 9)


def test_pow_starts_from_lowest_set_bit(monkeypatch):
    products = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        products.append(1)
        return matmul(self, other)

    for a in (Matrix([[1, 1], [0, 1]]), Matrix([[Fraction(1, 2), 1], [Fraction(-1, 3), 2]])):
        expected = Matrix.identity(2)
        for k in range(41):
            products.clear()
            monkeypatch.setattr(Matrix, "__matmul__", counting)
            result = matrix_pow(a, k)
            monkeypatch.setattr(Matrix, "__matmul__", matmul)
            assert result == expected, k
            assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
            expected = expected @ a


def _power_type(a):
    """The cyclotomic type by the power check a^L = I, L = lcm(n): the
    reference for ``cyclotomic_type``'s certificate."""
    lift = _cyclotomic_lift(a)
    if lift is None or matrix_pow(a, lcm(*lift[0], 1)) != Matrix.identity(a.nrows):
        return None
    return lift[0]


def _diag(values):
    return Matrix([[x if i == j else 0 for j in range(len(values))] for i, x in enumerate(values)])


def _nilpotent_extension(c):
    """[[c, I], [0, c]]: characteristic polynomial charpoly(c)^2, not semisimple."""
    k = c.nrows
    top = [row + tuple(int(i == j) for j in range(k)) for i, row in enumerate(c.rows)]
    return Matrix(top + [(0,) * k + row for row in c.rows])


def test_cyclotomic_type_certificate_matches_power_check(unimodular_pair):
    rng = random.Random(105)
    specs = enumerate_specs(8)
    for spec in specs[::3]:
        block = realize(spec)
        assert cyclotomic_type(block) == _power_type(block), spec
    hyperbolic = Matrix([[2, 1], [1, 1]])
    for t, spec in enumerate(specs[::20]):
        block = realize(spec)
        d = block.nrows
        if d == 0:
            continue
        p, q = unimodular_pair(rng, d, 3 * d)
        a = p @ block @ q
        ns = cyclotomic_type(a)
        assert ns == _power_type(a) == cyclotomic_type(block) is not None, spec
        if t % 3:
            continue
        if d <= 6:
            g = block_diag([hyperbolic, block])
            p, q = unimodular_pair(rng, d + 2, 3 * d + 6)
            assert cyclotomic_type(p @ g @ q) is None and _power_type(p @ g @ q) is None, spec


def test_cyclotomic_type_rejects_non_semisimple(unimodular_pair):
    rng = random.Random(9)
    for n in range(1, 10):
        m = _nilpotent_extension(companion(cyclotomic(n)))
        p, q = unimodular_pair(rng, m.nrows, 3 * m.nrows)
        for a in (m, p @ m @ q):
            assert _cyclotomic_lift(a)[0] == (n, n), n
            assert cyclotomic_type(a) is None and _power_type(a) is None, n


def test_cyclotomic_type_certifies_on_the_lift_chains(monkeypatch, unimodular_pair):
    # small-entry conjugates keep their Krylov chains exact, and small-entry
    # block forms their seeds as chains of length 1, so the certificate
    # reads q(a) e_s off them and never takes the sums on Python ints
    def no_int_sums(*args):
        raise AssertionError("the certificate must run on the lift's own chains")

    monkeypatch.setattr(finite, "_int_chain_sums", no_int_sums)
    rng = random.Random(28)
    for text in ("C9+C7+I2", "C5+C5+C3+I3", "I4+C12", "negC9+C8+C8", "C7+C7+C7", "C12+C12+I1", "C30+C11+I1", "C2+I5"):
        block = realize(parse_block_spec(text))
        d = block.nrows
        p, q = unimodular_pair(rng, d, 3 * d)
        a = p @ block @ q
        ns, seeds, chains = _cyclotomic_lift(a)
        assert ns == _cyclotomic_lift(block)[0] and chains is not None, text
        # each chain holds the exact a^k e_s, packed in signed 64-bit lanes,
        # and the last one unpacked
        for s, (chain, last) in zip(seeds, chains[1]):
            v = [int(i == s) for i in range(d)]
            for y in chain:
                assert y == sum(x << (64 * i) for i, x in enumerate(v)), (text, s)
                u, v = v, [sum(map(mul, row, v)) for row in a.rows]
            assert list(last) == u, (text, s)
        assert cyclotomic_type(a) == _power_type(a) == ns, text
        # the block form is upper Hessenberg: each seed is a chain of length 1
        _, seeds, chains = _cyclotomic_lift(block)
        units = [([1 << (64 * s)], [int(i == s) for i in range(d)]) for s in seeds]
        assert [(chain, list(last)) for chain, last in chains[1]] == units, text
        assert cyclotomic_type(block) == ns, text
    # the conjugated nilpotent extensions of Phi_n, n >= 3 (at n = 1, 2 every
    # 2 x 2 matrix is upper Hessenberg), are refuted on their chains
    for n in range(3, 10):
        m = _nilpotent_extension(companion(cyclotomic(n)))
        p, q = unimodular_pair(rng, m.nrows, 3 * m.nrows)
        a = p @ m @ q
        assert _cyclotomic_lift(a)[2] is not None, n
        assert cyclotomic_type(a) is None and _power_type(a) is None, n


def test_certificate_stops_a_chain_that_returns_to_its_seed(monkeypatch):
    # a chain back at e_s after L steps repeats with period L, so the
    # certificate adds the q_k up modulo L instead of stepping on to deg q.
    # The permutation with cycles (0 5 10), (1 6 11 3), (2 7 12 4 8), (9) is
    # not upper Hessenberg: the Krylov pass closes each chain on its cycle,
    # and the certificate takes no step (deg q = 10).  In the block form
    # I5+C7+C9 (deg q = 13) each identity seed closes after one step, the
    # seeds of C7 and C9 after 7 and 9.  Beside a unipotent block, whose
    # seed e_13 closes at once, the permutation is still refuted on e_14
    steps = []
    check = finite._check_work

    def spy(d, work, what, name, limit):
        if name == "MAX_CERTIFICATE_WORK":
            steps.append(work)
        return check(d, work, what, name, limit)

    monkeypatch.setattr(finite, "_check_work", spy)
    sigma = {0: 5, 5: 10, 10: 0, 1: 6, 6: 11, 11: 3, 3: 1, 2: 7, 7: 12, 12: 4, 4: 8, 8: 2, 9: 9}
    perm = [[int(sigma[j] == i) for j in range(13)] for i in range(13)]
    assert [len(chain) for chain, _ in _cyclotomic_lift(Matrix(perm))[2][1]] == [4, 5, 6, 2]
    assert cyclotomic_type(Matrix(perm)) == (1, 1, 1, 1, 2, 3, 4, 5) and steps == []
    assert cyclotomic_type(realize(parse_block_spec("I5+C7+C9"))) == (1, 1, 1, 1, 1, 7, 9) and len(steps) == 21
    extended = block_diag([Matrix(perm), Matrix([[1, 1], [0, 1]])])
    assert cyclotomic_type(extended) is None and _power_type(extended) is None


def test_chains_past_their_lanes_fall_back_to_python_ints(monkeypatch, unimodular_pair):
    # P^k B P^-k with entries of 14-17 digits: rho < 2^61, so the pass
    # starts on exact chains, but the first step's entries pass
    # 2^(62 - bit_length rho) and the pass restarts on residues, without
    # chains, so the certificate takes the sums on Python ints
    calls = []
    int_sums = finite._int_chain_sums
    monkeypatch.setattr(finite, "_int_chain_sums", lambda *args: calls.append(1) or int_sums(*args))
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(14), d, 3 * d)
    for k in (9, 11):
        a = matrix_pow(p, k) @ block @ matrix_pow(q, k)
        assert 14 <= max(len(str(abs(x))) for row in a.rows for x in row) <= 17, k
        assert max(sum(map(abs, row)) for row in a.rows) < 2**61, k
        assert _cyclotomic_lift(a)[2] is None, k
        calls.clear()
        assert cyclotomic_type(a) == _power_type(a) == (1, 1, 7, 9) and calls == [1], k


def test_python_int_steps_are_charged_for_each_row(monkeypatch):
    # a step on Python ints builds one int a row in a Python-level loop,
    # about as long as 100 word products whatever the entries, so each step
    # is charged 100 d on top of nnz(h) entry words times vector words.  On
    # the cyclic permutation (one entry a row) the word products alone come
    # to 16 d a step
    charges = []
    check = finite._check_work

    def spy(d, work, what, name, limit):
        charges.append(work)
        return check(d, work, what, name, limit)

    monkeypatch.setattr(finite, "_check_work", spy)
    d = 40
    perm = [[int(j == (i - 1) % d) for j in range(d)] for i in range(d)]
    assert finite._int_chain_sums(perm, [-1] + [0] * (d - 1) + [1], [0, 7], 0)
    steps = [b - a for a, b in zip([0] + charges, charges)]
    assert len(steps) == 2 * d and min(steps) >= 100 * d


def _spy_python_int_exits(monkeypatch):
    """(exit, seeds, answer) for each call of ``_int_chain_sums`` from the
    certificate: exit 0 when the lift kept no chains (or the sum's bound
    leaves no lane), 1 when a step of a chain overflows its lanes, 2 when
    the entries of a chain pass the bound of the sum."""
    lines, first = inspect.getsourcelines(finite._chain_certificate)
    exits = [first + i for i, line in enumerate(lines) if "return _int_chain_sums(" in line]
    assert len(exits) == 3
    calls = []
    int_sums = finite._int_chain_sums

    def spy(rows, coeffs, seeds, work):
        answer = int_sums(rows, coeffs, seeds, work)
        calls.append((exits.index(sys._getframe(1).f_lineno), list(seeds), answer))
        return answer

    monkeypatch.setattr(finite, "_int_chain_sums", spy)
    return calls


def test_certificate_leaves_for_python_ints_when_a_step_overflows(monkeypatch):
    # upper triangular, so each index is a seed; rho = 2^40 + 1 leaves 21
    # bits a lane to a step, and the chain of e_1 steps to (2^40, -1), whose
    # next step would overflow.  On Python ints a^2 e_1 = e_1 certifies it
    calls = _spy_python_int_exits(monkeypatch)
    flip = Matrix([[1, 2**40], [0, -1]])
    assert cyclotomic_type(flip) == _power_type(flip) == (1, 2) and calls == [(1, [1], True)]


def test_certificate_refutes_on_python_ints_after_a_step_overflows(monkeypatch):
    # the same overflow from e_1, beside a Jordan block at -1: the lift
    # reads (1, 2, 2), and the sums on Python ints refute it
    calls = _spy_python_int_exits(monkeypatch)
    jordan = Matrix([[1, 2**40, 0], [0, -1, 1], [0, 0, -1]])
    assert _cyclotomic_lift(jordan)[0] == (1, 2, 2)
    assert cyclotomic_type(jordan) is None and _power_type(jordan) is None and calls == [(1, [1, 2], False)]


def test_certificate_takes_python_ints_for_every_seed_when_the_lift_keeps_no_chains(monkeypatch):
    # a row sum past 2^61 leaves no lane to a step, so the lift keeps no
    # chains; the unipotent [[1, 2^70], [0, 1]] is refuted on Python ints
    calls = _spy_python_int_exits(monkeypatch)
    a = Matrix([[1, 2**70], [0, 1]])
    assert _cyclotomic_lift(a)[0::2] == ((1, 1), None)
    assert cyclotomic_type(a) is None and _power_type(a) is None and calls == [(0, [0, 1], False)]


def test_certificate_leaves_for_python_ints_when_lanes_pass_the_sum_bound(monkeypatch):
    # companion(Phi_p), p = 5, 7, ..., 41 (d = 222), each linked to the next
    # by 2^12 above the diagonal: semisimple, as the Phi_p are distinct.  q
    # is the product of the eleven Phi_p, sum |q_k| = 5 * 7 * ... * 41 has
    # 46 bits, so each lane of a chain must stay below 2^17; the chains of
    # the first two seeds do, and that of the third passes it while every
    # step stays within its lanes (rho = 2^12 + 2)
    calls = _spy_python_int_exits(monkeypatch)
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    blocks = [companion(cyclotomic(p)) for p in primes]
    rows = [list(row) for row in block_diag(blocks).rows]
    end = 0
    for block in blocks[:-1]:
        end += block.nrows
        rows[end - 1][end] = 2**12
    a = Matrix(rows)
    seeds = _cyclotomic_lift(a)[1]
    assert len(seeds) == len(primes)
    start = time.perf_counter()
    assert cyclotomic_type(a) == primes and calls == [(2, seeds[2:], True)]
    assert time.perf_counter() - start < 5


def test_cyclotomic_type_probe_sees_defect_off_the_chain():
    # (U - I) kills (1, 1, 1), so q(a) v0 = 0 for v0 = (1, ..., 1): the chain
    # from v0 passes and only the probe finds the unipotent part
    u = Matrix([[1, 1, -1], [0, 1, 0], [0, 0, 1]])
    a = block_diag([companion(cyclotomic(105)), u, Matrix.identity(44)])
    q = poly_mul(cyclotomic(1), cyclotomic(105))
    h = [1] * a.nrows
    for c in reversed(q[:-1]):
        h = [sum(x * y for x, y in zip(row, h)) + c for row in a.rows]
    assert h == [0] * a.nrows
    assert _cyclotomic_lift(a)[0] == (1,) * 47 + (105,)
    assert cyclotomic_type(a) is None and _power_type(a) is None


def test_cyclotomic_type_takes_no_matrix_products(monkeypatch, unimodular_pair):
    rng = random.Random(18)
    block = realize(parse_block_spec("C9+C7+C5+I2"))
    p, q = unimodular_pair(rng, block.nrows, 3 * block.nrows)
    a = p @ block @ q
    jordan = block_diag([_nilpotent_extension(companion(cyclotomic(9))), Matrix.identity(6)])
    p, q = unimodular_pair(rng, 18, 54)
    b = p @ jordan @ q
    assert a.nrows == b.nrows == 18

    def no_products(*args):
        raise AssertionError("cyclotomic_type must not multiply matrices")

    monkeypatch.setattr(Matrix, "__matmul__", no_products)
    assert cyclotomic_type(a) == (1, 1, 5, 7, 9)
    assert cyclotomic_type(b) is None


def test_cyclotomic_type_large_block_form_is_fast():
    # d = 100, order 516,600: about 1 s by repeated squaring
    a = realize(parse_block_spec("C41+C25+C9+C8+C7+I24"))
    start = time.perf_counter()
    ns = cyclotomic_type(a)
    elapsed = time.perf_counter() - start
    assert ns == (1,) * 24 + (7, 8, 9, 25, 41) and lcm(*ns) == 516_600
    assert elapsed < 1


def _traces_pass(m):
    d = m.nrows
    tr2 = sum(m.rows[i][j] * m.rows[j][i] for i in range(d) for j in range(d))
    return abs(sum(m.rows[i][i] for i in range(d))) <= d and abs(tr2) <= d


def test_lift_congruent_to_cyclotomic_is_refuted_by_the_seeds(monkeypatch):
    # companion(Phi_n + p x^j) has characteristic polynomial Phi_n modulo the
    # lift's prime p = 2^19 - 1, within every bound and reciprocal: only the
    # seed certificate shows that it has infinite order
    passes = []
    hessenberg = finite._hessenberg_charpoly
    monkeypatch.setattr(finite, "_hessenberg_charpoly", lambda h: passes.append(list(h)) or hessenberg(h))
    c5 = companion(cyclotomic(5))
    checked = 0
    for n in (5, 7, 9, 12, 16, 20, 21, 33, 44, 61):
        phi = cyclotomic(n)
        k = len(phi) - 1
        for extra in (False, True):
            for j in range(k):
                f = list(phi)
                f[j] += 2**19 - 1
                m = companion(tuple(f))
                if extra:
                    m = block_diag([m, c5])
                if not _traces_pass(m):
                    continue
                passes.clear()
                assert _cyclotomic_lift(m)[0] == tuple(sorted((n, 5) if extra else (n,))), (n, j)
                assert passes == [list(m.rows)], (n, j)
                assert cyclotomic_type(m) is None, (n, extra, j)
                if m.nrows <= 24:
                    assert rational_block_form(m) is None, (n, extra, j)
                checked += 1
    # j = k - 1 and j = k - 2 move tr a and tr a^2 by p, and every other j passes
    assert checked == 256


def _random_spec(rng, d):
    """A block spec of dimension d from C<n>, negC<n> (odd n) and I<m> labels."""
    labels = []
    while d:
        menu = [f"C{n}" for n in range(2, 40) if totient(n) <= d]
        menu += [f"negC{n}" for n in range(3, 40, 2) if totient(n) <= d] + [f"I{m}" for m in range(1, min(d, 3) + 1)]
        label = rng.choice(menu)
        labels.append(label)
        d -= spec_dim(parse_block_spec(label))
    return "+".join(labels)


def test_seed_krylov_chains_have_rank_d(unimodular_pair):
    # each seed's integer chain, taken for as long as it raises the rank over
    # Q, adds at least one vector, and together they reach rank d: the
    # seeds' Krylov spaces span Q^d
    rng = random.Random(300)
    restarted = 0
    for t in range(300):
        d = rng.randint(2, 16)
        a = realize(parse_block_spec(_random_spec(rng, d)))
        if t % 2:
            p, q = unimodular_pair(rng, d, 3 * d)
            a = p @ a @ q
        _, seeds, _ = _hessenberg_charpoly(a.rows)
        assert seeds == _cyclotomic_lift(a)[1], a
        assert seeds[0] == 0, a
        chains = []
        for s in seeds:
            v = tuple(int(i == s) for i in range(d))
            before = len(chains)
            while rank(Matrix(chains + [v], ncols=d)) > len(chains):
                chains.append(v)
                v = tuple(sum(map(mul, row, v)) for row in a.rows)
            assert len(chains) > before, (a, s)
        assert len(chains) == d and rank(Matrix(chains)) == d, a
        restarted += len(seeds) > 1
    assert restarted > 200


def test_non_reciprocal_lift_exits_before_the_factor_search(monkeypatch):
    # x^d - x - 1 passes the trace test (tr a = tr a^2 = 0) and every
    # coefficient bound, but its reversal is -x^d - x^(d-1) + 1: with no
    # Phi_1 or Phi_2 to divide out, cyclotomic_factors refuses it before
    # it forms the trace polynomial G and searches it for Psi_n
    def no_search(*args):
        raise AssertionError("a non-reciprocal lift must not reach the factor search")

    passes = []
    hessenberg = finite._hessenberg_charpoly
    monkeypatch.setattr(finite, "_hessenberg_charpoly", lambda h: passes.append(list(h)) or hessenberg(h))
    monkeypatch.setattr(finite, "trace_form", no_search)
    for d in range(12, 61):
        a = companion((-1, -1) + (0,) * (d - 2) + (1,))
        assert _traces_pass(a), d
        passes.clear()
        assert _cyclotomic_lift(a) is None and cyclotomic_type(a) is None, d
        assert passes == [list(a.rows)] * 2, d


def test_reciprocal_lift_of_infinite_order_exits_before_the_certificate(monkeypatch, unimodular_pair):
    # a conjugate of [[2, 1], [1, 1]] + C5 (the shape of the benchmark's
    # infinite-order requests) has the reciprocal characteristic polynomial
    # (x^2 - 3x + 1) Phi_5 and passes the trace test: the factor search
    # refuses it, and the certificate never runs
    def no_certificate(*args):
        raise AssertionError("a lift that is not a product of Phi_n must not reach the certificate")

    searched = []
    factors = finite.cyclotomic_factors
    monkeypatch.setattr(finite, "cyclotomic_factors", lambda poly: searched.append(len(poly) - 1) or factors(poly))
    monkeypatch.setattr(finite, "_chain_certificate", no_certificate)
    block = block_diag([Matrix([[2, 1], [1, 1]]), companion(cyclotomic(5))])
    rng = random.Random(17)
    for t in range(40):
        p, q = unimodular_pair(rng, 6, 2 + t % 12)
        a = p @ block @ q
        assert _traces_pass(a), a
        searched.clear()
        assert _cyclotomic_lift(a) is None and cyclotomic_type(a) is None, a
        assert searched == [6] * 2, a


def _random_reciprocal(rng, half, p):
    """A monic palindromic polynomial of degree 2 half with random residues."""
    low = [1] + [rng.randrange(p) for _ in range(half - 1)]
    return low + [rng.randrange(p)] + low[::-1]


def test_cyclotomic_factors_match_trial_division():
    # products of Phi_n (n <= 200, with multiplicity), the same times a
    # reciprocal factor that is not cyclotomic, random reciprocal residues,
    # and products of two, against the trial division by Phi_n over Z it
    # replaced
    rng = random.Random(24)
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    small = [n for n in range(1, 201) if totient(n) <= 24]
    found = refused = 0
    p = (1 << 19) - 1
    for t in range(450):
        kind = t % 3
        ns = []
        budget = rng.randint(0, 36)
        while True:
            pool = [n for n in (small if t % 2 else range(1, 201)) if totient(n) <= budget]
            if not pool or rng.random() < 0.15:
                break
            n = rng.choice(pool)
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                if totient(n) <= budget:
                    ns.append(n)
                    budget -= totient(n)
        poly = (1,)
        for n in ns:
            poly = poly_mul(poly, cyclotomic(n))
        if kind == 1:
            poly = poly_mul(poly, rng.choice(((1, -3, 1), lehmer)))
        elif kind == 2:
            poly = poly_mul(poly, tuple(_random_reciprocal(rng, rng.randint(1, 6), p)))
        residues = [c % p for c in poly]
        expected = cyclotomic_factors_by_division(residues, p)
        assert cyclotomic_factors(residues) == expected, (t, ns, kind)
        if kind == 0:
            assert expected == tuple(sorted(ns)), (t, ns)
            found += 1
        else:
            refused += expected is None
    assert found == 150 and refused == 300
    # every product of two: the larger factor is often not the larger n
    for a in range(1, 41):
        for b in range(a, 41):
            residues = [c % p for c in poly_mul(cyclotomic(a), cyclotomic(b))]
            assert cyclotomic_factors(residues) == cyclotomic_factors_by_division(residues, p) == (a, b), (a, b)


def test_trace_form_inverts_the_reciprocal_substitution():
    # x^s G(x + 1/x) = sum_k G_k x^(s - k) (x^2 + 1)^k gives back Phi_n,
    # Psi_n is monic of degree phi(n)/2 with integer coefficients, and the
    # cached terms mod p (Psi_2m read off Psi_m for odd m) are its own
    p = (1 << 19) - 1
    for n in range(3, 201):
        psi = trace_form(list(cyclotomic(n)))
        s = len(psi) - 1
        assert 2 * s == totient(n) and psi[-1] == 1, n
        assert _trace_terms(n) == tuple((j - s, c % p) for j, c in enumerate(psi[:-1]) if c % p), n
        back = [0] * (2 * s + 1)
        power = (1,)
        for k, c in enumerate(psi):
            for i, v in enumerate(power):
                back[s - k + i] += c * v
            power = poly_mul(power, (1, 0, 1))
        assert tuple(back) == cyclotomic(n), n


def test_lift_refuses_denominators_divisible_by_its_prime(monkeypatch, unimodular_pair):
    # the finite-order routes take integer matrices only: a rational
    # conjugate is refused before any pass of the lift, whether its lcm of
    # denominators holds the lift's prime 2^19 - 1, another Mersenne prime
    # or neither, while the integer conjugate is answered
    passes = []
    hessenberg = finite._hessenberg_charpoly
    monkeypatch.setattr(finite, "_hessenberg_charpoly", lambda h: passes.append(list(h)) or hessenberg(h))
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(19), d, 3 * d)
    calls = (
        cyclotomic_type,
        lambda m: order(m, 63),
        free_outside_origin,
        rational_block_form,
        analyze_action,
        lambda m: invariant_ranks_molien(m, 63),
    )
    for den in (2**19 - 1, 2**31 - 1, 1):
        diag = [Fraction(1, den)] + [Fraction(i + 2, 3) for i in range(d - 1)]
        rational = p @ _diag(diag) @ block @ _diag([1 / x for x in diag]) @ q
        scale = lcm(*(x.denominator for row in rational.rows for x in row if type(x) is not int))
        assert scale > 1 and scale % den == 0, den
        for call in calls:
            with pytest.raises(ValueError, match="integer matrix"):
                call(rational)
    assert passes == []
    a = p @ block @ q
    assert cyclotomic_type(a) == (1, 1, 7, 9) and passes == [list(a.rows)]
    assert order(a, 63) == 63 and not free_outside_origin(a) and rational_block_form(a) is not None
    assert analyze_action(a).blocks == parse_block_spec("C7+C9+I2")
    assert invariant_ranks_molien(a, 63) == invariant_ranks(parse_block_spec("C9+C7+I2"))
    # bool entries are ints: Matrix stores them as plain ints
    assert cyclotomic_type(Matrix([[False, True], [True, False]])) == (1, 2)


def test_one_prime_covers_every_dimension_the_work_limit_admits(monkeypatch):
    # the lift's proof needs 2^19 - 1 > totient_bound(d); from d = 94,648 on
    # it fails, and there both routes' work is far past MAX_LIFT_WORK: the
    # Krylov pass counts at least d^2 (2d + 1), and the p_m recurrence 16 a
    # step over sum (end - b) end >= sum (end^2 - b^2) / 2 = d^2 / 2 steps
    p = 2**19 - 1
    first = 94_648
    assert totient_bound(first - 1) < p <= totient_bound(first)
    assert first * first * (2 * first + 1) > MAX_LIFT_WORK
    assert 16 * first * first // 2 > MAX_LIFT_WORK
    # both floors hold for the work each route counts
    counted = []
    check = finite._check_work
    monkeypatch.setattr(finite, "_check_work", lambda d, work, *rest: counted.append((d, work)) or check(d, work, *rest))
    rng = random.Random(94_648)
    for t in range(40):
        d = rng.randint(3, 30)
        a = realize(parse_block_spec(_random_spec(rng, d)))
        # a nonzero corner below the subdiagonal sends it to the Krylov pass
        dense = Matrix([[rng.randint(-3, 3) or 1 if (i, j) == (d - 1, 0) else rng.randint(-3, 3) for j in range(d)] for i in range(d)])
        for m, floor in ((a, 8 * d * d), (dense, d * d * (2 * d + 1))):
            counted.clear()
            finite._hessenberg_charpoly(m.rows)
            assert counted[0][0] == d and counted[0][1] >= floor, (m, counted)


def test_lanes_are_wide_enough_to_keep_seeds_apart():
    # a = I + c E_01 - E_0t is unipotent, upper triangular, so every index is
    # a seed, and q(a) = a - I sends e_1 to c e_0 and e_t to -e_0.  With the
    # seeds packed as lanes of 2 bits (X = 4) and c = 4^(t - 1) one probe
    # would cancel to 0; the certificate sums each seed's chain apart
    for t in (3, 16):
        rows = [[int(i == j) for j in range(t + 1)] for i in range(t + 1)]
        rows[0][1], rows[0][t] = 4 ** (t - 1), -1
        a = Matrix(rows)
        assert _cyclotomic_lift(a)[:2] == ((1,) * (t + 1), list(range(t + 1)))
        probe = [4**s for s in range(t + 1)]
        assert [sum(map(mul, row, probe)) - x for row, x in zip(rows, probe)] == [0] * (t + 1)
        assert cyclotomic_type(a) is None and _power_type(a) is None, t


def _sweep_spec(rng, d):
    """A random block spec of dimension d: C<n> and negC<n> (odd n) up to
    n = 300, and I<m>, m <= 3."""
    spec = []
    while d:
        menu = [Cyclotomic(n) for n in range(2, 301) if totient(n) <= d]
        menu += [NegCyclotomic(n) for n in range(3, 301, 2) if totient(n) <= d]
        spec.append(rng.choice(menu + [Identity(m) for m in range(1, min(d, 3) + 1)]))
        d -= spec_dim(spec[-1:])
    return tuple(spec)


def _spec_type(spec):
    """The cyclotomic type of realize(spec), read off the spec: one Phi of
    the block's order for each C<n> and negC<n>, Phi_1 m times for I<m>."""
    return tuple(sorted(n for b in spec for n in ([1] * b.m if isinstance(b, Identity) else [block_order(b)])))


def test_finite_order_soundness_sweep():
    # every answer of cyclotomic_type against an oracle that shares no code
    # with it: the spec, for block forms and their conjugates by unimodular,
    # upper unitriangular and signed permutation P, also P^k B P^-k with
    # entries of hundreds of digits; the cycle type, for permutations (a
    # cycle of length l gives each n | l); None, for [[B, E], [0, B]] with
    # tr E != 0 (B X - X B = E has no solution, so it is not semisimple) and
    # for inputs of infinite order that pass the trace test; and q(a) = 0 by
    # a plain Horner pass for d <= 40 and entries below 10^100 (past them it
    # takes seconds, and the spec is the oracle).  Each call answers, or is
    # refused with ValueError naming its work limit
    rng = random.Random(34)
    cases = []
    for d in [rng.randint(1, 12) for _ in range(100)] + [rng.randint(13, 150) for _ in range(40)] + [150] * 6:
        spec = _sweep_spec(rng, d)
        block = [list(row) for row in realize(spec).rows]
        cases.append((block, _spec_type(spec)))
        for kind in ("unimodular", "unitriangular", "signed_permutation"):
            rows = [row[:] for row in block]
            conjugate_in_place(rows, random_ops(rng, d, 3 * d, kind))
            cases.append((rows, _spec_type(spec)))
    for d, k in ((4, 200), (6, 40), (10, 100), (14, 60), (18, 150), (24, 30), (30, 120), (36, 300)):
        spec = _sweep_spec(rng, d)
        rows = [list(row) for row in realize(spec).rows]
        conjugate_in_place(rows, random_ops(rng, d, 3 * d, "unimodular"), k)
        cases.append((rows, _spec_type(spec)))
    for d in [rng.randint(1, 40) for _ in range(60)] + [rng.randint(41, 150) for _ in range(15)]:
        perm = rng.sample(range(d), d)
        lengths, seen = [], set()
        for s in range(d):
            length = 0
            while s not in seen:
                seen.add(s)
                s, length = perm[s], length + 1
            lengths += [length] if length else []
        rows = [[int(perm[j] == i) for j in range(d)] for i in range(d)]
        cases.append((rows, tuple(sorted(n for length in lengths for n in range(1, length + 1) if not length % n))))
    for _ in range(60):
        b = realize(_sweep_spec(rng, rng.randint(1, 20))).rows
        m = len(b)
        e = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        e[0][0] += 1 - sum(e[i][i] for i in range(m))
        rows = [list(row) + e[i] for i, row in enumerate(b)] + [[0] * m + list(row) for row in b]
        conjugate_in_place(rows, random_ops(rng, 2 * m, 6 * m, "unimodular"))
        cases.append((rows, None))
    lehmer = companion((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    salem = companion((1, -1, -1, -1, 1))
    infinite = [lehmer, salem, block_diag([lehmer, salem]), block_diag([Matrix([[2, 1], [1, 1]]), companion(cyclotomic(5))])]
    infinite += [companion((-1, -1) + (0,) * (d - 2) + (1,)) for d in (12, 40, 90)]
    for m in infinite[:4]:
        infinite.append(block_diag([m, realize(_sweep_spec(rng, rng.randint(1, 30)))]))
    for m in infinite:
        assert _traces_pass(m), m
        rows = [list(row) for row in m.rows]
        conjugate_in_place(rows, random_ops(rng, m.nrows, 3 * m.nrows, "unimodular"))
        cases += [([list(row) for row in m.rows], None), (rows, None)]
    answered = horner = 0
    for rows, expected in cases:
        a = Matrix(rows)
        try:
            ns = cyclotomic_type(a)
        except ValueError as error:
            assert "MAX_LIFT_WORK" in str(error) or "MAX_CERTIFICATE_WORK" in str(error), error
            continue
        assert ns == expected, (a, expected)
        answered += 1
        if ns is not None and a.nrows <= 40 and max(max(map(abs, row)) for row in rows) < 10**100:
            assert annihilated_by_cyclotomics(a, ns), a
            horner += 1
    assert answered > 700 and horner > 400
