import itertools
import random
import time
from fractions import Fraction
from math import comb, lcm
from operator import mul

import pytest

from nctori import exactlin
from nctori.arith import _trace_terms, cyclotomic, cyclotomic_factors, poly_mul, totient, totient_bound, trace_form
from nctori.exactlin import (
    _MERSENNE_EXPONENTS,
    _components,
    _cyclotomic_lift,
    _hessenberg_charpoly,
    _shift_diag,
    Matrix,
    block_diag,
    companion,
    compound,
    cyclotomic_type,
    det,
    kernel_basis,
    order,
    rank,
    rational_block_form,
    reduced_basis,
)
from nctori.invariants import parse_block_spec, realize, spec_dim
from oracles import cyclotomic_factors_by_division, enumerate_specs, matrix_pow


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


def test_compound_trivial_cases():
    assert compound(Matrix.identity(4), 2) == Matrix.identity(6)
    a = Matrix([[1, 2], [3, 4]])
    assert compound(a, 2) == Matrix([[det(a)]])
    assert compound(Matrix([[2, 0], [0, 3]]), 1) == Matrix([[2, 0], [0, 3]])
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

    monkeypatch.setattr(exactlin, "_chain_certificate", no_certificate)
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


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[1.5]])


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
    for a in cases:
        d = a.nrows
        # rational input goes through D a, D the lcm of the denominators
        scale = lcm(*(x.denominator for row in a.rows for x in row if type(x) is not int), 1)
        b = Matrix([[scale * x for x in row] for row in a.rows])
        e = _route_exponent(d)
        p = (1 << e) - 1
        residues, _, _ = _hessenberg_charpoly(b.rows, e)
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
        # conjugate by a rational, non-integral P
        diag = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
        f = p @ _diag(diag) @ block @ _diag([1 / x for x in diag]) @ q
        assert cyclotomic_type(f) == _power_type(f) == ns, spec
        if d <= 6:
            g = block_diag([hyperbolic, block])
            p, q = unimodular_pair(rng, d + 2, 3 * d + 6)
            assert cyclotomic_type(p @ g @ q) is None and _power_type(p @ g @ q) is None, spec


def test_cyclotomic_type_rejects_non_semisimple(unimodular_pair):
    rng = random.Random(9)
    for n in range(1, 10):
        m = _nilpotent_extension(companion(cyclotomic(n)))
        p, q = unimodular_pair(rng, m.nrows, 3 * m.nrows)
        diag = [Fraction(i + 1, 2) for i in range(m.nrows)]
        for a in (m, p @ m @ q, p @ _diag(diag) @ m @ _diag([1 / x for x in diag]) @ q):
            assert _cyclotomic_lift(a)[0] == (n, n), n
            assert cyclotomic_type(a) is None and _power_type(a) is None, n


def test_cyclotomic_type_certifies_on_the_lift_chains(monkeypatch, unimodular_pair):
    # small-entry conjugates keep their Krylov chains exact, and small-entry
    # block forms their seeds as chains of length 1, so the certificate
    # reads q~(D a) e_s off them and never takes the sums on Python ints
    def no_int_sums(*args):
        raise AssertionError("the certificate must run on the lift's own chains")

    monkeypatch.setattr(exactlin, "_int_chain_sums", no_int_sums)
    rng = random.Random(28)
    for text in ("C9+C7+I2", "C5+C5+C3+I3", "I4+C12", "negC9+C8+C8", "C7+C7+C7", "C12+C12+I1", "C30+C11+I1", "C2+I5"):
        block = realize(parse_block_spec(text))
        d = block.nrows
        p, q = unimodular_pair(rng, d, 3 * d)
        a = p @ block @ q
        ns, seeds, rows, _, chains = _cyclotomic_lift(a)
        assert ns == _cyclotomic_lift(block)[0] and chains is not None, text
        # each chain holds the exact a^k e_s, packed in signed 64-bit lanes,
        # and the last one unpacked
        for s, (chain, last) in zip(seeds, chains[1]):
            v = [int(i == s) for i in range(d)]
            for y in chain:
                assert y == sum(x << (64 * i) for i, x in enumerate(v)), (text, s)
                u, v = v, [sum(map(mul, row, v)) for row in rows]
            assert list(last) == u, (text, s)
        assert cyclotomic_type(a) == _power_type(a) == ns, text
        # the block form is upper Hessenberg: each seed is a chain of length 1
        _, seeds, _, _, chains = _cyclotomic_lift(block)
        units = [([1 << (64 * s)], [int(i == s) for i in range(d)]) for s in seeds]
        assert [(chain, list(last)) for chain, last in chains[1]] == units, text
        assert cyclotomic_type(block) == ns, text
    # the conjugated nilpotent extensions of Phi_n, n >= 3 (at n = 1, 2 every
    # 2 x 2 matrix is upper Hessenberg), are refuted on their chains
    for n in range(3, 10):
        m = _nilpotent_extension(companion(cyclotomic(n)))
        p, q = unimodular_pair(rng, m.nrows, 3 * m.nrows)
        a = p @ m @ q
        assert _cyclotomic_lift(a)[4] is not None, n
        assert cyclotomic_type(a) is None and _power_type(a) is None, n


def test_certificate_stops_a_chain_that_returns_to_its_seed(monkeypatch):
    # a chain back at e_s after L steps repeats with period L, so the
    # certificate adds the q~_k up modulo L instead of stepping on to deg q.
    # The permutation with cycles (0 5 10), (1 6 11 3), (2 7 12 4 8), (9) is
    # not upper Hessenberg: the Krylov pass closes each chain on its cycle,
    # and the certificate takes no step (deg q = 10).  In the block form
    # I5+C7+C9 (deg q = 13) each identity seed closes after one step, the
    # seeds of C7 and C9 after 7 and 9.  Beside a unipotent block, whose
    # seed e_13 closes at once, the permutation is still refuted on e_14
    steps = []
    check = exactlin._check_work

    def spy(d, work, what, name, limit):
        if name == "MAX_CERTIFICATE_WORK":
            steps.append(work)
        return check(d, work, what, name, limit)

    monkeypatch.setattr(exactlin, "_check_work", spy)
    sigma = {0: 5, 5: 10, 10: 0, 1: 6, 6: 11, 11: 3, 3: 1, 2: 7, 7: 12, 12: 4, 4: 8, 8: 2, 9: 9}
    perm = [[int(sigma[j] == i) for j in range(13)] for i in range(13)]
    assert [len(chain) for chain, _ in _cyclotomic_lift(Matrix(perm))[4][1]] == [4, 5, 6, 2]
    assert cyclotomic_type(Matrix(perm)) == (1, 1, 1, 1, 2, 3, 4, 5) and steps == []
    assert cyclotomic_type(realize(parse_block_spec("I5+C7+C9"))) == (1, 1, 1, 1, 1, 7, 9) and len(steps) == 21
    extended = block_diag([Matrix(perm), Matrix([[1, 1], [0, 1]])])
    assert cyclotomic_type(extended) is None and _power_type(extended) is None


def test_chains_past_their_lanes_fall_back_to_python_ints(monkeypatch, unimodular_pair):
    # P^k B P^-k with entries of 14-17 digits: rho < 2^61, so the pass
    # starts on exact chains, but the first step's entries pass
    # 2^(62 - bit_length rho) and the pass restarts on residues, without
    # chains.  A rational conjugate with D = 36 keeps its chains through the
    # lift, but sum |q~_k| >= D^13 > 2^63.  Both take the sums on Python ints
    calls = []
    int_sums = exactlin._int_chain_sums
    monkeypatch.setattr(exactlin, "_int_chain_sums", lambda *args: calls.append(1) or int_sums(*args))
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(14), d, 3 * d)
    for k in (9, 11):
        a = matrix_pow(p, k) @ block @ matrix_pow(q, k)
        assert 14 <= max(len(str(abs(x))) for row in a.rows for x in row) <= 17, k
        assert max(sum(map(abs, row)) for row in a.rows) < 2**61, k
        assert _cyclotomic_lift(a)[4] is None, k
        calls.clear()
        assert cyclotomic_type(a) == _power_type(a) == (1, 1, 7, 9) and calls == [1], k
    p, q = unimodular_pair(random.Random(48), d, 3 * d)
    diag = [Fraction(3, 4), Fraction(1, 3)] + [Fraction(1)] * (d - 2)
    f = p @ _diag(diag) @ block @ _diag([1 / x for x in diag]) @ q
    _, _, _, scale, chains = _cyclotomic_lift(f)
    assert scale == 36 and chains is not None
    calls.clear()
    assert cyclotomic_type(f) == _power_type(f) == (1, 1, 7, 9) and calls == [1]


def test_python_int_steps_are_charged_for_each_row(monkeypatch):
    # a step on Python ints builds one int a row in a Python-level loop,
    # about as long as 100 word products whatever the entries, so each step
    # is charged 100 d on top of nnz(h) entry words times vector words.  On
    # the cyclic permutation (one entry a row) the word products alone come
    # to 16 d a step
    charges = []
    check = exactlin._check_work

    def spy(d, work, what, name, limit):
        charges.append(work)
        return check(d, work, what, name, limit)

    monkeypatch.setattr(exactlin, "_check_work", spy)
    d = 40
    perm = [[int(j == (i - 1) % d) for j in range(d)] for i in range(d)]
    assert exactlin._int_chain_sums(perm, [-1] + [0] * (d - 1) + [1], [0, 7], 0)
    steps = [b - a for a, b in zip([0] + charges, charges)]
    assert len(steps) == 2 * d and min(steps) >= 100 * d


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


def _route_exponent(d):
    """e of the least listed Mersenne prime 2^e - 1 above totient_bound(d)."""
    return next(e for e in _MERSENNE_EXPONENTS if (1 << e) - 1 > totient_bound(d))


def _traces_pass(m):
    d = m.nrows
    tr2 = sum(m.rows[i][j] * m.rows[j][i] for i in range(d) for j in range(d))
    return abs(sum(m.rows[i][i] for i in range(d))) <= d and abs(tr2) <= d


def test_lift_congruent_to_cyclotomic_is_refuted_by_the_seeds(monkeypatch):
    # companion(Phi_n + p x^j) has characteristic polynomial Phi_n modulo the
    # route's prime p, within every bound and reciprocal: only the seed
    # certificate shows that it has infinite order
    exponents = []
    hessenberg = exactlin._hessenberg_charpoly
    monkeypatch.setattr(exactlin, "_hessenberg_charpoly", lambda h, e: exponents.append(e) or hessenberg(h, e))
    c5 = companion(cyclotomic(5))
    checked = 0
    for n in (5, 7, 9, 12, 16, 20, 21, 33, 44, 61):
        phi = cyclotomic(n)
        k = len(phi) - 1
        for extra in (False, True):
            d = k + 4 * extra
            e = _route_exponent(d)
            for j in range(k):
                f = list(phi)
                f[j] += (1 << e) - 1
                m = companion(tuple(f))
                if extra:
                    m = block_diag([m, c5])
                if not _traces_pass(m):
                    continue
                exponents.clear()
                assert _cyclotomic_lift(m)[0] == tuple(sorted((n, 5) if extra else (n,))), (n, j)
                assert exponents == [e], (n, j)
                assert cyclotomic_type(m) is None, (n, extra, j)
                if d <= 24:
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
        e = _route_exponent(d)
        _, seeds, _ = _hessenberg_charpoly(a.rows, e)
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
    # coefficient bound, but its reversal is -x^d - x^(d-1) + 1
    def no_division(*args):
        raise AssertionError("a non-reciprocal lift must not reach the factor search")

    passes = []
    hessenberg = exactlin._hessenberg_charpoly
    monkeypatch.setattr(exactlin, "_hessenberg_charpoly", lambda h, e: passes.append(e) or hessenberg(h, e))
    monkeypatch.setattr(exactlin, "cyclotomic_factors", no_division)
    for d in range(12, 61):
        a = companion((-1, -1) + (0,) * (d - 2) + (1,))
        assert _traces_pass(a), d
        passes.clear()
        assert _cyclotomic_lift(a) is None and cyclotomic_type(a) is None, d
        assert passes == [_route_exponent(d)] * 2, d


def test_reciprocal_lift_of_infinite_order_exits_before_the_certificate(monkeypatch, unimodular_pair):
    # a conjugate of [[2, 1], [1, 1]] + C5 (the shape of the benchmark's
    # infinite-order requests) has the reciprocal characteristic polynomial
    # (x^2 - 3x + 1) Phi_5 and passes the trace test: the factor search
    # refuses it, and the certificate never runs
    def no_certificate(*args):
        raise AssertionError("a lift that is not a product of Phi_n must not reach the certificate")

    searched = []
    factors = exactlin.cyclotomic_factors
    monkeypatch.setattr(exactlin, "cyclotomic_factors", lambda poly, p: searched.append(p) or factors(poly, p))
    monkeypatch.setattr(exactlin, "_chain_certificate", no_certificate)
    block = block_diag([Matrix([[2, 1], [1, 1]]), companion(cyclotomic(5))])
    rng = random.Random(17)
    for t in range(40):
        p, q = unimodular_pair(rng, 6, 2 + t % 12)
        a = p @ block @ q
        assert _traces_pass(a), a
        searched.clear()
        assert _cyclotomic_lift(a) is None and cyclotomic_type(a) is None, a
        assert searched == [(1 << 19) - 1] * 2, a


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
    for e in (19, 31, 61):
        p = (1 << e) - 1
        for t in range(150):
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
            assert cyclotomic_factors(residues, p) == expected, (e, ns, kind)
            if kind == 0:
                assert expected == tuple(sorted(ns)), (e, ns)
                found += 1
            else:
                refused += expected is None
    assert found == 150 and refused == 300
    # every product of two: the larger factor is often not the larger n
    p = (1 << 19) - 1
    for a in range(1, 41):
        for b in range(a, 41):
            residues = [c % p for c in poly_mul(cyclotomic(a), cyclotomic(b))]
            assert cyclotomic_factors(residues, p) == cyclotomic_factors_by_division(residues, p) == (a, b), (a, b)


def test_trace_form_inverts_the_reciprocal_substitution():
    # x^s G(x + 1/x) = sum_k G_k x^(s - k) (x^2 + 1)^k gives back Phi_n,
    # Psi_n is monic of degree phi(n)/2 with integer coefficients, and the
    # cached terms mod p (Psi_2m read off Psi_m for odd m) are its own
    p = (1 << 19) - 1
    for n in range(3, 201):
        psi = trace_form(list(cyclotomic(n)))
        s = len(psi) - 1
        assert 2 * s == totient(n) and psi[-1] == 1, n
        assert _trace_terms(n, p) == tuple((j - s, c % p) for j, c in enumerate(psi[:-1]) if c % p), n
        back = [0] * (2 * s + 1)
        power = (1,)
        for k, c in enumerate(psi):
            for i, v in enumerate(power):
                back[s - k + i] += c * v
            power = poly_mul(power, (1, 0, 1))
        assert tuple(back) == cyclotomic(n), n


def test_lift_passes_over_a_prime_dividing_the_denominators(monkeypatch, unimodular_pair):
    # the diagonal scaling by 1 / (2^19 - 1) puts that prime into D, where
    # D^-1 does not exist: the lift takes the next listed prime, 2^31 - 1
    exponents = []
    hessenberg = exactlin._hessenberg_charpoly
    monkeypatch.setattr(exactlin, "_hessenberg_charpoly", lambda h, e: exponents.append(e) or hessenberg(h, e))
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(19), d, 3 * d)
    diag = [Fraction(1, 2**19 - 1)] + [Fraction(i + 2, 3) for i in range(d - 1)]
    rational = p @ _diag(diag) @ block @ _diag([1 / x for x in diag]) @ q
    scale = lcm(*(x.denominator for row in rational.rows for x in row if type(x) is not int))
    assert scale % (2**19 - 1) == 0
    assert cyclotomic_type(rational) == cyclotomic_type(block) == (1, 1, 7, 9)
    assert exponents == [31, 19]
    # with 2^31 - 1 in D as well, it takes 2^61 - 1, on lanes of 192 bits
    diag[1] = Fraction(1, 2**31 - 1)
    rational = p @ _diag(diag) @ block @ _diag([1 / x for x in diag]) @ q
    scale = lcm(*(x.denominator for row in rational.rows for x in row if type(x) is not int))
    assert scale % (2**19 - 1) == scale % (2**31 - 1) == 0
    exponents.clear()
    assert cyclotomic_type(rational) == (1, 1, 7, 9)
    assert exponents == [61]


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
