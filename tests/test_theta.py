import itertools
import random
import time
from fractions import Fraction

import pytest

from nctori import theta
from nctori.arith import cyclotomic
from nctori.exactlin import Matrix, _components, block_diag, companion, kernel_basis, rank, rational_block_form
from nctori.classify import analyze_action
from nctori.invariants import (
    Cyclotomic,
    Identity,
    invariant_ranks,
    parse_block_spec,
    realize,
    spec_dim,
    spec_nondegenerate,
)
from nctori.theta import (
    PairingValue,
    SymbolicSkew,
    _component_solutions,
    _skew_matrix,
    invariant_space,
    is_invariant,
    is_nondegenerate,
    nondegenerate_invariant_exists,
    nondegenerate_witness,
    pairing,
)
from oracles import conjugate_in_place, enumerate_specs, random_ops

J = Matrix([[0, 1], [-1, 0]])


def theta_J():
    return SymbolicSkew(2, Matrix.zero(2, 2), (("t", J),))


def test_pairing_reads_off_entries():
    assert pairing(theta_J(), [1, 0], [0, 1]) == PairingValue(Fraction(0), (("t", Fraction(1)),))
    assert pairing(theta_J(), [0, 0], [1, 1]) == PairingValue(Fraction(0))
    half = SymbolicSkew(2, Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), ())
    assert pairing(half, [1, 0], [0, 1]) == PairingValue(Fraction(1, 2))


def test_pairing_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(theta_J(), [1, 0, 0], [0, 1])


def test_is_invariant_examples():
    c3 = companion(cyclotomic(3))
    assert is_invariant(theta_J(), c3)
    assert is_invariant(theta_J(), Matrix.identity(2))
    assert not is_invariant(theta_J(), Matrix([[1, 0], [0, -1]]))
    # the swap negates the rational part: not invariant, whatever the symbol parts
    half = SymbolicSkew(2, Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), ())
    assert not is_invariant(half, Matrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="matrix dimension mismatch"):
        is_invariant(theta_J(), Matrix.identity(3))


def test_invariant_space_companion_phi3():
    basis = invariant_space(companion(cyclotomic(3)))
    assert len(basis) == 1
    assert basis[0] == J or basis[0] == -J
    with pytest.raises(ValueError, match="invariant_space requires a square matrix"):
        invariant_space(Matrix([[1, 2]]))


def test_invariant_space_identity_is_full_skew():
    for d in (1, 2, 3, 4):
        basis = invariant_space(Matrix.identity(d))
        assert len(basis) == d * (d - 1) // 2


def test_invariant_space_trailing_identity_forces_zero_edge():
    a = block_diag([companion(cyclotomic(3)), Matrix.identity(1)])
    basis = invariant_space(a)
    assert basis
    for s in basis:
        assert all(s.rows[2][j] == 0 for j in range(3))
        assert all(s.rows[i][2] == 0 for i in range(3))


def test_invariant_space_toeplitz_structure_emerges():
    # for two companion blocks, each basis matrix is constant along the
    # diagonals of its off-diagonal block
    a = block_diag([companion(cyclotomic(3)), companion(cyclotomic(3))])
    basis = invariant_space(a)
    assert basis
    for s in basis:
        block = [[s.rows[i][j] for j in (2, 3)] for i in (0, 1)]
        assert block[0][0] == block[1][1]


def test_is_nondegenerate_examples():
    assert is_nondegenerate(theta_J())
    rational_only = SymbolicSkew(2, Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), ())
    assert not is_nondegenerate(rational_only)
    padded = SymbolicSkew(
        3,
        Matrix.zero(3, 3),
        (("t", Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])),),
    )
    assert not is_nondegenerate(padded)


def test_nondegenerate_invariant_exists_examples():
    exists, witness = nondegenerate_invariant_exists(companion(cyclotomic(9)))
    assert exists
    assert is_invariant(witness, companion(cyclotomic(9)))
    assert is_nondegenerate(witness)

    exists, witness = nondegenerate_invariant_exists(
        block_diag([companion(cyclotomic(3)), Matrix.identity(1)])
    )
    assert not exists and witness is None

    exists, witness = nondegenerate_invariant_exists(-Matrix.identity(4))
    assert exists
    assert is_invariant(witness, -Matrix.identity(4))
    assert is_nondegenerate(witness)


def _direct_sum(a: SymbolicSkew, b: SymbolicSkew, suffix: str) -> SymbolicSkew:
    d = a.dim + b.dim
    def embed(m: Matrix, offset: int, size: int) -> Matrix:
        rows = [[0] * d for _ in range(d)]
        for i in range(size):
            for j in range(size):
                rows[offset + i][offset + j] = m.rows[i][j]
        return Matrix(rows)

    parts = [(name, embed(m, 0, a.dim)) for name, m in a.symbol_parts]
    parts += [(name + suffix, embed(m, a.dim, b.dim)) for name, m in b.symbol_parts]
    rational = block_diag([a.rational_part, b.rational_part])
    return SymbolicSkew(d, rational, tuple(parts))


def test_direct_sum_nondegeneracy_law():
    good = theta_J()
    bad = SymbolicSkew(2, Matrix.zero(2, 2), (("u", Matrix.zero(2, 2)),))
    assert is_nondegenerate(_direct_sum(good, good, "'"))
    assert not is_nondegenerate(_direct_sum(good, bad, "'"))
    assert not is_nondegenerate(_direct_sum(bad, good, "'"))


def test_invariance_closed_under_products():
    rng = random.Random(31)
    c4 = companion(cyclotomic(4))
    mats = [c4, -Matrix.identity(2), Matrix.identity(2), c4 @ c4]
    theta = theta_J()
    for _ in range(20):
        a, b = rng.choice(mats), rng.choice(mats)
        if is_invariant(theta, a) and is_invariant(theta, b):
            assert is_invariant(theta, a @ b)


def test_symbolic_skew_validation():
    with pytest.raises(ValueError):
        SymbolicSkew(2, Matrix([[0, 1], [1, 0]]), ())  # not skew
    with pytest.raises(ValueError):
        SymbolicSkew(2, Matrix.zero(2, 2), (("t", J), ("t", J)))  # duplicate symbol
    with pytest.raises(ValueError):
        SymbolicSkew(3, Matrix.zero(2, 2), ())  # wrong shape
    with pytest.raises(ValueError, match="coefficient of 't' has wrong shape"):
        SymbolicSkew(2, Matrix.zero(2, 2), (("t", Matrix.zero(3, 3)),))
    with pytest.raises(ValueError, match="coefficient of 't' must be skew-symmetric"):
        SymbolicSkew(2, Matrix.zero(2, 2), (("t", Matrix.identity(2)),))
    with pytest.raises(ValueError, match="need at least one coefficient matrix"):
        SymbolicSkew.from_symbol_matrices([])


def test_witness_on_classification_blocks():
    # companion realizations with at least two residual directions admit a witness
    for spec in [(Cyclotomic(9),), (Cyclotomic(3), Identity(2)), (Cyclotomic(4), Identity(3))]:
        a = realize(spec)
        exists, witness = nondegenerate_invariant_exists(a)
        assert exists, spec
        assert is_invariant(witness, a)
        assert is_nondegenerate(witness)


def _direct_space(a: Matrix) -> tuple[Matrix, ...]:
    """The direct solve: one linear system per pair of support components."""
    return tuple(_skew_matrix(a.nrows, sol) for sol in _component_solutions(a, _components(a)))


def test_block_form_route_matches_direct_solve(unimodular_pair):
    # one irreducible block, repeated blocks, Phi_1 or Phi_2 of multiplicity
    # one (no witness), an identity part: each conjugate is one support
    # component, solved in its rational block form; the infinite-order pad
    # has no block form and takes the direct solve
    rng = random.Random(2017)
    texts = ("C27", "C54", "C7+C7", "C8+C8+C8+C8", "negC17+I1", "C5+C2", "C3+I3")
    cases = [(text, realize(parse_block_spec(text))) for text in texts]
    cases.append(("pad", block_diag([Matrix([[2, 1], [1, 1]]), companion(cyclotomic(5))])))
    for text, a in cases:
        p, q = unimodular_pair(rng, a.nrows, 2 * a.nrows)
        conj = p @ a @ q
        assert len(_components(conj)) == 1, text
        assert (rational_block_form(conj.transpose()) is None) == (text == "pad"), text
        basis = invariant_space(conj)
        assert basis == _direct_space(conj), text
        assert all(type(x) is int for s in basis for row in s.rows for x in row), text
        assert all(s.transpose() == -s and conj.transpose() @ s @ conj == s for s in basis), text
        assert len(basis) == len(invariant_space(a)), text


def _dense_space(a: Matrix) -> tuple[Matrix, ...]:
    """Reference for the sparse assembly: the same subsystems as the direct
    solve, every coefficient a[k][i] a[l][j] - a[l][i] a[k][j] evaluated."""
    sols = []
    comps = _components(a)
    for ci, p in enumerate(comps):
        blocks = [list(itertools.combinations(p, 2))] + [list(itertools.product(p, q)) for q in comps[ci + 1 :]]
        for positions in blocks:
            if not positions:
                continue
            rows = [
                [
                    a.rows[k][i] * a.rows[l][j] - a.rows[l][i] * a.rows[k][j] - ((k, l) == (i, j))
                    for k, l in positions
                ]
                for i, j in positions
            ]
            for vec in kernel_basis(Matrix(rows)):
                sols.append(_skew_matrix(a.nrows, ((*pos, v) for pos, v in zip(positions, vec) if v)))
    return tuple(sols)


def _shuffled(a: Matrix, rng: random.Random) -> Matrix:
    perm = list(range(a.nrows))
    rng.shuffle(perm)
    return Matrix([[a.rows[i][j] for j in perm] for i in perm])


def test_sparse_assembly_matches_dense_formula(unimodular_pair):
    # each block conjugated dense, then the indices shuffled, so the support
    # components interleave and positions (i, j) with i > j occur; the
    # hyperbolic blocks make the last cases infinite order
    rng = random.Random(2019)
    hyperbolic = Matrix([[2, 1], [1, 1]])
    finite = ("C3+C4+I2", "negC5+C3+I2", "C7+C7+I1", "C8+negC3+C2")
    cases = [[realize((b,)) for b in parse_block_spec(text)] for text in finite]
    cases += [
        [hyperbolic, companion(cyclotomic(5))],
        [hyperbolic, hyperbolic, Matrix.identity(1)],
        [hyperbolic, companion(cyclotomic(3)), -companion(cyclotomic(5))],
    ]
    for blocks in cases:
        interleaved = 0
        for _ in range(4):
            dense = []
            for b in blocks:
                if b.nrows > 1:
                    p, q = unimodular_pair(rng, b.nrows, 2 * b.nrows)
                    b = p @ b @ q
                dense.append(b)
            a = _shuffled(block_diag(dense), rng)
            comps = _components(a)
            assert len(comps) >= 2, a
            interleaved += any(max(p) > min(q) for p, q in itertools.combinations(comps, 2))
            basis = invariant_space(a)
            assert basis == _dense_space(a), a
            assert is_invariant(SymbolicSkew.from_symbol_matrices(basis), a), a
        assert interleaved, blocks


def test_early_exit_nondegeneracy_matches_stacked_rank(unimodular_pair):
    # the degenerate cases: Phi_1 or Phi_2 of multiplicity one, and I3
    rng = random.Random(2020)
    texts = ["C3+I1", "C2+C5", "I3", "C9", "C4+I3", "C3+C3", "negC5+C2+C2", "C5+C3+I2", "C8+C8"]
    mats = []
    for text in texts:
        a = realize(parse_block_spec(text))
        p, q = unimodular_pair(rng, a.nrows, 2 * a.nrows)
        mats += [a, p @ a @ q, _shuffled(a, rng)]
    for a in mats:
        d = a.nrows
        basis = invariant_space(a)
        stacked = Matrix([row for m in basis for row in m.rows], ncols=d)
        full = rank(stacked) == d
        exists, witness = nondegenerate_witness(basis, d)
        assert exists == full == is_nondegenerate(SymbolicSkew.from_symbol_matrices(basis)), a
        assert witness == (SymbolicSkew.from_symbol_matrices(basis) if full else None)
    # random skew families: several low-rank matrices, rational entries too
    for _ in range(60):
        d = rng.randint(2, 7)
        parts = []
        for k in range(rng.randint(1, 4)):
            u = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(d)]
            v = [rng.randint(-3, 3) for _ in range(d)]
            parts.append((f"t{k}", Matrix([[u[i] * v[j] - u[j] * v[i] for j in range(d)] for i in range(d)])))
        theta = SymbolicSkew(d, Matrix.zero(d, d), tuple(parts))
        stacked = Matrix([row for _, m in parts for row in m.rows], ncols=d)
        assert is_nondegenerate(theta) == (rank(stacked) == d)
    # a zero first matrix, and no symbol parts at all (the common kernel is Q^d)
    j3 = Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    families = [(2, [Matrix.zero(2, 2), J], True), (3, [Matrix.zero(3, 3), j3], False), (0, [], True), (2, [], False)]
    # e_i ^ e_{i+1} for i < d - 1, dense by congruence: the first k leave
    # e_{k+1}, ..., e_{d-1} in the common kernel, so only the last reaches {0}
    for d in range(2, 8):
        p, _ = unimodular_pair(rng, d, 2 * d)
        chain = []
        for i in range(d - 1):
            e = [[0] * d for _ in range(d)]
            e[i][i + 1], e[i + 1][i] = 1, -1
            chain.append(p.transpose() @ Matrix(e) @ p)
        families += [(d, chain[:k], k == d - 1) for k in range(1, d)]
    for d, family, expected in families:
        theta = SymbolicSkew(d, Matrix.zero(d, d), tuple((f"t{k}", m) for k, m in enumerate(family)))
        full = rank(Matrix([row for m in family for row in m.rows], ncols=d)) == d
        assert is_nondegenerate(theta) == full == expected, (d, family)


def test_nondegeneracy_on_conjugated_probe_blocks_is_fast():
    # P^3 B P^-3 with P a product of 3d random +-1 elementary matrices, built
    # as CI builds its theta probe; the second spec is degenerate (I1 + C5)
    for text in ("C25+C9+C8+I6", "C25+C9+C8+I1+C5"):
        spec = parse_block_spec(text)
        rows = [list(row) for row in realize(spec).rows]
        conjugate_in_place(rows, random_ops(random.Random(36), len(rows), 3 * len(rows), "unimodular"), 3)
        a = Matrix(rows)
        assert nondegenerate_invariant_exists(a)[0] == spec_nondegenerate(spec), text
        theta = SymbolicSkew.from_symbol_matrices(invariant_space(a))
        start = time.perf_counter()
        is_nondegenerate(theta)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, (text, elapsed)


def test_spec_reads_the_invariant_forms_off_the_spectrum():
    # every block spec up to dimension 6, with its 1 x 1 cases (no skew form)
    specs = enumerate_specs(6)[1:]
    assert len(specs) == 984
    for spec in specs:
        a = realize(spec)
        ranks = invariant_ranks(spec)
        assert spec_nondegenerate(spec) == nondegenerate_invariant_exists(a)[0], spec
        assert (ranks[2] if len(ranks) > 2 else 0) == len(invariant_space(a)), spec


def test_analyze_action_matches_the_direct_solve_on_conjugates(unimodular_pair):
    # the edge cases put Phi_1 or Phi_2 at multiplicity one, or have d = 1
    rng = random.Random(2025)
    pool = [s for s in enumerate_specs(9) if s]
    edges = ("C2+I1", "C3+I1", "C2+C3", "C2+C2+I1", "negC1+I2", "C2", "I1")
    specs = rng.sample(pool, 40) + [parse_block_spec(t) for t in edges]
    assert max(map(spec_dim, specs)) == 9
    for spec in specs:
        a = realize(spec)
        d = a.nrows
        if d > 1:
            p, q = unimodular_pair(rng, d, 2 * d)
            a = p @ a @ q
        report = analyze_action(a)
        basis = _direct_space(a)
        assert report.invariant_space_dim == len(basis), spec
        assert report.theta_exists == nondegenerate_witness(basis, d)[0], spec


def test_rational_conjugate_takes_the_direct_solve(monkeypatch, unimodular_pair):
    # the block-form route takes integer matrices only, so a rational
    # conjugate with one support component is answered by the direct solve,
    # also when the lcm of its denominators holds the lift's prime 2^19 - 1
    spec = parse_block_spec("C9+C7+I2")
    block = realize(spec)
    d = block.nrows
    p, q = unimodular_pair(random.Random(19), d, 3 * d)
    conjugates = []
    for den in (2**19 - 1, 2):
        diag = [Fraction(1, den)] + [Fraction(i + 2, 3) for i in range(d - 1)]
        t = Matrix([[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
        t_inv = Matrix([[1 / diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
        a = p @ t @ block @ t_inv @ q
        assert any(type(x) is not int for row in a.rows for x in row) and len(_components(a)) == 1, den
        conjugates.append(a)
    answers = [invariant_space(a) for a in conjugates]
    monkeypatch.setattr(theta, "rational_block_form", lambda m: None)
    for a, basis in zip(conjugates, answers):
        assert basis == invariant_space(a) and len(basis) == invariant_ranks(spec)[2], a
        assert all(s.transpose() == -s and a.transpose() @ s @ a == s for s in basis), a
