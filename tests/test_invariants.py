import random
import time
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import pytest

from nctori.exactlin import Matrix, det, order
from nctori.arith import divisors
from nctori.invariants import (
    _KRONECKER_MAX_BITS,
    _digit_bits,
    _int_product,
    _kronecker_sum,
    _molien_terms,
    _recurrence_sum,
    MAX_RANK_WORK,
    Cyclotomic,
    Identity,
    NegCyclotomic,
    block_dim,
    block_label,
    block_order,
    free_outside_origin,
    invariant_rank,
    invariant_rank_oracle,
    invariant_ranks,
    invariant_ranks_molien,
    parse_block_spec,
    realize,
    s1,
    spec_dim,
    spec_free,
    spec_order,
)
from oracles import enumerate_specs, rotation_spectrum


def frac(a, b):
    return Fraction(a, b)


def test_rotation_spectrum_examples():
    assert rotation_spectrum((Cyclotomic(9),)) == tuple(
        frac(k, 9) for k in (1, 2, 4, 5, 7, 8)
    )
    assert rotation_spectrum((Identity(3),)) == (0, 0, 0)
    assert rotation_spectrum((NegCyclotomic(3),)) == (frac(1, 6), frac(5, 6))


def test_rotation_spectrum_galois_closed():
    for spec in [(Cyclotomic(9),), (Cyclotomic(12),), (NegCyclotomic(5),), (Cyclotomic(7), Cyclotomic(4))]:
        spectrum = rotation_spectrum(spec)
        assert len(spectrum) == spec_dim(spec)
        values = set(spectrum)
        for q in spectrum:
            n = q.denominator
            for a in range(1, n):
                if gcd(a, n) == 1:
                    assert (q * a) % 1 in values


def test_invariant_rank_z9_vanishing():
    spec = (Cyclotomic(9),)
    for m in (1, 3, 5):
        assert invariant_rank(spec, m) == 0
    assert invariant_rank(spec, 0) == 1
    assert invariant_rank(spec, 2) == 3  # pairs {1,8},{2,7},{4,5} of ninths
    assert s1(spec) == 0


def test_invariant_rank_identity_and_range():
    assert invariant_rank((Identity(2),), 1) == 2
    with pytest.raises(ValueError):
        invariant_rank((Identity(2),), 3)


def test_oracle_examples():
    assert invariant_rank_oracle(realize((Cyclotomic(9),)), 3) == 0
    assert invariant_rank_oracle(Matrix.identity(4), 2) == 6
    assert invariant_rank_oracle(realize((Cyclotomic(3),)), 1) == 0


def test_oracle_rejects_large_dimension():
    with pytest.raises(ValueError):
        invariant_rank_oracle(Matrix.identity(13), 1)
    with pytest.raises(ValueError, match="dimension 12"):
        invariant_rank_oracle(Matrix.identity(13), 0)
    with pytest.raises(ValueError, match="square"):
        invariant_rank_oracle(Matrix([[1, 0, 0], [0, 1, 0]]), 0)
    with pytest.raises(ValueError, match="degree 5 out of range for dimension 4"):
        invariant_rank_oracle(realize((Cyclotomic(5),)), 5)


def test_single_degree_oracle_matches_invariant_ranks(unimodular_pair):
    rng = random.Random(4096)
    pool = [s for s in enumerate_specs(8) if spec_dim(s) >= 4]
    for spec in rng.sample(pool, 8) + [parse_block_spec(t) for t in ("C5+C2", "negC7+I1", "C8+C3")]:
        b = realize(spec)
        d = b.nrows
        p, q = unimodular_pair(rng, d, 3 * d)
        for a in (b, p @ b @ q):
            ranks = tuple(invariant_rank_oracle(a, m) for m in range(d + 1))
            assert ranks == invariant_ranks(spec), spec


def _rational_conjugate(rng, b, unimodular_pair):
    # P = U T with U unimodular and T = I + E_00 + E_01 of determinant 2, so
    # P^-1 = T^-1 U^-1 is exact but not integral, and so is P b P^-1
    d = b.nrows
    u, u_inv = unimodular_pair(rng, d, 3 * d)
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    t = Matrix([[2, 1] + [0] * (d - 2)] + eye[1:])
    t_inv = Matrix([[frac(1, 2), frac(-1, 2)] + [0] * (d - 2)] + eye[1:])
    p, p_inv = u @ t, t_inv @ u_inv
    assert p @ p_inv == Matrix.identity(d)
    a = p @ b @ p_inv
    assert any(isinstance(x, Fraction) for row in a.rows for x in row)
    return a


def test_single_degree_oracle_on_rational_conjugates(unimodular_pair):
    rng = random.Random(2718)
    for text in ("C3", "C5", "C5+C3", "negC7", "C4+I2", "C8", "C3+C3"):
        spec = parse_block_spec(text)
        a = _rational_conjugate(rng, realize(spec), unimodular_pair)
        d = a.nrows
        assert tuple(invariant_rank_oracle(a, m) for m in range(d + 1)) == invariant_ranks(spec), text


def test_molien_matches_spectrum_dp_exhaustive():
    specs = enumerate_specs(8)[1:]
    assert len(specs) == 4505 and all(specs)
    for spec in specs:
        assert invariant_ranks_molien(realize(spec), spec_order(spec)) == invariant_ranks(spec), spec


def test_molien_matches_dp_and_oracle_on_conjugates(unimodular_pair):
    rng = random.Random(1897)
    pool = [s for s in enumerate_specs(8) if spec_dim(s) >= 2]
    for spec in rng.sample(pool, 20):
        b = realize(spec)
        d = b.nrows
        p, q = unimodular_pair(rng, d, 3 * d)
        a = p @ b @ q
        ranks = invariant_ranks(spec)
        assert invariant_ranks_molien(a, spec_order(spec)) == ranks, spec
        assert tuple(invariant_rank_oracle(a, m) for m in range(d + 1)) == ranks, spec


def test_molien_contract():
    c5 = realize((Cyclotomic(5),))
    with pytest.raises(ValueError):
        invariant_ranks_molien(c5, 3)
    with pytest.raises(ValueError):
        invariant_ranks_molien(Matrix([[1, 0, 0], [0, 1, 0]]), 1)
    # any multiple of the order averages over the same group
    assert invariant_ranks_molien(c5, 10) == invariant_ranks_molien(c5, 5) == (1, 0, 2, 0, 1)


def _binary_chain(n):
    """The exponents of the left-to-right binary chain of n."""
    chain, e = {1}, 1
    for bit in bin(n)[3:]:
        e *= 2
        chain.add(e)
        if bit == "1":
            e += 1
            chain.add(e)
    return chain


def test_molien_on_rational_conjugates(unimodular_pair):
    # Molien's formula takes integer matrices only: each rational conjugate
    # is refused at its order and at twice it
    rng = random.Random(1505)
    for text in ("C3", "C5", "C5+C3", "negC7", "C4+I2", "C8", "C3+C3", "C7+C5+C2", "C5+C4+C3"):
        spec = parse_block_spec(text)
        a = _rational_conjugate(rng, realize(spec), unimodular_pair)
        for n in (spec_order(spec), 2 * spec_order(spec)):
            with pytest.raises(ValueError, match="integer matrix"):
                invariant_ranks_molien(a, n)


def test_molien_on_conjugates_wider_than_64_bit_words():
    # P = product of elementary matrices with multipliers near 10^6, so the
    # entries of P b P^-1 and d max|a|^2 are far past 2^63
    rng = random.Random(1009)
    for text in ("C5+C3", "C7+C2", "C12+C4+I2", "negC9+C3", "C7+C5+C2"):
        spec = parse_block_spec(text)
        b = realize(spec)
        d = b.nrows
        p = q = Matrix.identity(d)
        for _ in range(4):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1)) * rng.randint(10**6, 2 * 10**6)
            e = [[int(r == s) for s in range(d)] for r in range(d)]
            e[i][j] = c
            p = p @ Matrix(e)
            e[i][j] = -c
            q = Matrix(e) @ q
        a = p @ b @ q
        assert d * max(abs(x) for row in a.rows for x in row) ** 2 >= 2**63, text
        assert invariant_ranks_molien(a, spec_order(spec)) == invariant_ranks(spec), text


def test_molien_with_divisors_off_the_binary_chain(unimodular_pair):
    rng = random.Random(70)
    for text, n in (("C7+C2", 14), ("C7+C5+C2", 70), ("C7+C5+C2", 140), ("C7+C5+C2", 210), ("C9+C4", 36), ("C5+C3+C2", 60)):
        spec = parse_block_spec(text)
        assert n % spec_order(spec) == 0, text
        # the chain of 14 is 1, 2, 3, 6, 7, 14; every other n has divisors off its chain
        assert (set(divisors(n)) <= _binary_chain(n)) == (n == 14), n
        b = realize(spec)
        p, q = unimodular_pair(rng, b.nrows, 3 * b.nrows)
        for a in (b, p @ b @ q):
            assert invariant_ranks_molien(a, n) == invariant_ranks(spec), (text, n)


def test_molien_on_the_empty_matrix_and_order_one():
    assert invariant_ranks_molien(Matrix([]), 1) == invariant_ranks_molien(Matrix([]), 6) == (1,)
    assert invariant_ranks_molien(Matrix.identity(3), 1) == invariant_ranks_molien(Matrix.identity(3), 4) == (1, 3, 3, 1)
    with pytest.raises(ValueError, match=r"a\^1 = I"):
        invariant_ranks_molien(-Matrix.identity(2), 1)
    with pytest.raises(ValueError, match="order must be positive"):
        invariant_ranks_molien(Matrix.identity(2), 0)


def test_molien_rejects_a_matrix_of_infinite_order():
    shear = Matrix([[1, 1], [0, 1]])
    for n in (1, 2, 3, 6, 12, 70):
        with pytest.raises(ValueError, match=f"a\\^{n} = I"):
            invariant_ranks_molien(shear, n)


def test_int_product_matches_matrix_product():
    rng = random.Random(64)
    for d in range(1, 7):
        for scale in (0, 1, 9, 2**31, 2**62, 10**30):
            x = Matrix([[rng.randint(-scale, scale) for _ in range(d)] for _ in range(d)])
            y = Matrix([[rng.randint(-scale, scale) for _ in range(d)] for _ in range(d)])
            for u, v in ((x, y), (x, -Matrix.identity(d)), (Matrix.zero(d, d), y)):
                flat = _int_product([z for row in u.rows for z in row], [z for row in v.rows for z in row], d)
                assert flat == [z for row in (u @ v).rows for z in row], (d, scale)
    # all entries +-t with d t^2 just below and just above 2^63: the product
    # reaches -d t^2, the extreme a 64-bit word must hold
    for d in range(1, 5):
        for t in (isqrt((2**63 - 1) // d), isqrt((2**63 - 1) // d) + 1):
            u = Matrix([[t] * d for _ in range(d)])
            for v in (-u, u, Matrix([[(-1) ** (i + j) * t for j in range(d)] for i in range(d)])):
                flat = _int_product([z for row in u.rows for z in row], [z for row in v.rows for z in row], d)
                assert flat == [z for row in (u @ v).rows for z in row], (d, t)


def test_s1_examples():
    assert s1((Cyclotomic(9),)) == 0
    assert s1((Cyclotomic(7),)) == (2**6 - 36) // 14
    assert s1((NegCyclotomic(27),)) == 0
    # every eigenvalue of an odd exterior power of -C_q is -1 times a q-th
    # root of unity, never 1 for odd q
    for q in range(3, 200, 2):
        assert s1((NegCyclotomic(q),)) == 0, q


def test_s1_prime_closed_form():
    for n in (3, 5, 7, 11):
        assert s1((Cyclotomic(n),)) == (2 ** (n - 1) - (n - 1) ** 2) // (2 * n), n


def test_s1_positive_when_dimension_large_enough():
    # odd prime powers q with phi(q) <= 12 and q^(e-1)(q-2) >= 5
    for q in (7, 11, 13):
        assert s1((Cyclotomic(q),)) > 0


def test_free_outside_origin():
    assert free_outside_origin(realize((Cyclotomic(9),)))
    assert free_outside_origin(-Matrix.identity(4))
    assert not free_outside_origin(realize((Cyclotomic(3), Identity(1))))


def test_free_outside_origin_rejects_infinite_order():
    with pytest.raises(ValueError):
        free_outside_origin(Matrix([[1, 1], [0, 1]]))


def test_block_helpers():
    assert block_dim(Cyclotomic(9)) == 6
    assert block_dim(Identity(3)) == 3
    assert block_order(NegCyclotomic(27)) == 54
    assert block_order(NegCyclotomic(6)) == 3
    assert block_order(NegCyclotomic(4)) == 4
    assert block_label(NegCyclotomic(27)) == "negC27"
    assert parse_block_spec("C9+negC3+I2") == (Cyclotomic(9), NegCyclotomic(3), Identity(2))
    with pytest.raises(ValueError):
        parse_block_spec("C9+flip")
    with pytest.raises(ValueError):
        parse_block_spec("")
    with pytest.raises(ValueError, match="block token 'Cx' needs a positive integer argument"):
        parse_block_spec("Cx")
    for kind, what in ((Cyclotomic, "Cyclotomic block index"), (NegCyclotomic, "NegCyclotomic block index"),
                       (Identity, "Identity block size")):
        with pytest.raises(ValueError, match=f"{what} must be positive"):
            kind(0)


def test_spec_order_matches_realized_order():
    for text in ("C9", "negC27", "C3+I2", "negC5+C4", "C2+C2", "negC1"):
        spec = parse_block_spec(text)
        assert spec_order(spec) == order(realize(spec), 200), text
        assert spec_free(spec) == free_outside_origin(realize(spec)), text
    specs = enumerate_specs(6)[1:]
    assert len(specs) == 984 and all(specs)
    for spec in specs:
        assert spec_free(spec) == free_outside_origin(realize(spec)), spec


def test_oracle_equivalence_small_exhaustive():
    # the full-depth sweep lives in the acceptance suite; this is the fast core
    oracle_cache = {}
    for spec in enumerate_specs(5):
        ranks = invariant_ranks(spec)
        a = realize(spec)
        if a not in oracle_cache:
            oracle_cache[a] = tuple(
                invariant_rank_oracle(a, m) for m in range(a.nrows + 1)
            )
        assert ranks == oracle_cache[a], spec


def test_oracle_equivalence_sampled_medium():
    rng = random.Random(1117)
    pool = [s for s in enumerate_specs(8) if spec_dim(s) >= 6]
    for spec in rng.sample(pool, 40):
        a = realize(spec)
        assert invariant_ranks(spec) == tuple(
            invariant_rank_oracle(a, m) for m in range(a.nrows + 1)
        ), spec


def test_even_order_free_specs_have_zero_s1():
    checked = 0
    for spec in enumerate_specs(8):
        if not spec:
            continue
        orders = {block_order(b) for b in spec}
        if len(orders) != 1 or orders == {1}:
            continue  # mixed orders or identity blocks: not free
        n = orders.pop()
        if n % 2 == 0:
            assert free_outside_origin(realize(spec)), spec
            assert s1(spec) == 0, spec
            checked += 1
    assert checked > 10


def test_nonfree_even_order_spec_can_have_positive_s1():
    # shows why the vanishing statement needs the freeness hypothesis
    spec = (Cyclotomic(5), Cyclotomic(5), Cyclotomic(2))
    assert spec_order(spec) == 10
    assert not free_outside_origin(realize(spec))
    assert s1(spec) > 0


def test_rank_sums_and_unit_term():
    rng = random.Random(2718)
    specs = rng.sample(enumerate_specs(6), 60)
    for spec in specs:
        ranks = invariant_ranks(spec)
        assert ranks[0] == 1
        if spec and det(realize(spec)) == 1:
            assert sum(ranks) >= 2, spec
        assert s1(spec) == sum(ranks[1::2])


def _counting_ranks(spec):
    """Invariant ranks by counting: the number of size-m sub-multisets of the
    rotation spectrum with integer sum, by a dynamic program over (number of
    angles chosen, residue of the partial sum modulo the lcm of the angle
    denominators), multiplicities entering through binomial convolution.
    O(d^2 N) for order N; the reference for the spectral Molien route."""
    d = spec_dim(spec)
    counts = {}
    for q in rotation_spectrum(spec):
        counts[q] = counts.get(q, 0) + 1
    modulus = lcm(*(q.denominator for q in counts), 1)
    table = [[0] * modulus for _ in range(d + 1)]
    table[0][0] = 1
    placed = 0
    for q in sorted(counts):
        mult = counts[q]
        step = q.numerator * (modulus // q.denominator) % modulus
        binom = [comb(mult, j) for j in range(mult + 1)]
        new = [[0] * modulus for _ in range(d + 1)]
        for c in range(placed + 1):
            for r, v in enumerate(table[c]):
                if v:
                    for j in range(mult + 1):
                        new[c + j][(r + j * step) % modulus] += v * binom[j]
        table = new
        placed += mult
    return tuple(table[m][0] for m in range(d + 1))


def test_spectral_molien_matches_counting_exhaustive():
    specs = enumerate_specs(9)
    assert len(specs) == 9010
    for spec in specs:
        assert invariant_ranks(spec) == _counting_ranks(spec), spec


def test_spectral_molien_matches_counting_on_flips():
    for d in (1, 2, 3, 17, 256, 1024):
        flip = (Cyclotomic(2),) * d
        assert invariant_ranks(flip) == _counting_ranks(flip), d
    # a flip next to fixed directions mixes (1 + t)^a and (1 - t)^b in one product
    for a, b in ((1, 1), (5, 8), (40, 25)):
        spec = (Cyclotomic(2),) * b + (Identity(a),)
        assert invariant_ranks(spec) == _counting_ranks(spec), (a, b)
    # a lone (1 + t)^m or (1 - t)^m past the Kronecker bound goes through the
    # power recurrence: every k-form is fixed by I_m, the even ones by -I_m
    for m in (100, 257, 1000):
        identity, flip = (Identity(m),), (Cyclotomic(2),) * m
        assert not _takes_kronecker(identity) and not _takes_kronecker(flip), m
        assert invariant_ranks(identity) == tuple(comb(m, k) for k in range(m + 1)), m
        assert invariant_ranks(flip) == tuple(0 if k % 2 else comb(m, k) for k in range(m + 1)), m


def _route_ranks(spec, kronecker):
    """Invariant ranks of ``spec`` by one evaluation of the Molien sum,
    whichever side of ``_KRONECKER_MAX_BITS`` the spec is on."""
    n, d, weights, _ = _molien_terms(spec)
    totals = _kronecker_sum(weights, d, _digit_bits(n, d)) if kronecker else _recurrence_sum(weights, d)
    assert all(t % n == 0 for t in totals), spec
    return tuple(t // n for t in totals)


def _takes_kronecker(spec):
    n, d, _, _ = _molien_terms(spec)
    return d * _digit_bits(n, d) < _KRONECKER_MAX_BITS


def test_both_spectral_routes_match_counting_exhaustive():
    specs = enumerate_specs(9)
    assert len(specs) == 9010 and all(map(_takes_kronecker, specs))
    for spec in specs:
        expected = _counting_ranks(spec)
        assert _route_ranks(spec, True) == _route_ranks(spec, False) == expected, spec


def test_both_spectral_routes_match_counting_at_the_route_bound():
    # d w = 8010 and 8372 for the flips, 8096 and 9600 for the prime blocks,
    # 8190 and 8372 for flips next to fixed directions
    below = [(Cyclotomic(2),) * 90, (Cyclotomic(89),), (Cyclotomic(2),) * 46 + (Identity(45),)]
    above = [(Cyclotomic(2),) * 92, (Cyclotomic(97),), (Cyclotomic(2),) * 47 + (Identity(45),)]
    assert all(map(_takes_kronecker, below)) and not any(map(_takes_kronecker, above))
    for spec in below + above:
        expected = _counting_ranks(spec)
        assert _route_ranks(spec, True) == _route_ranks(spec, False) == expected, spec
        assert invariant_ranks(spec) == expected, spec


def test_kronecker_sum_keeps_the_arithmetic_error_contract():
    # (1 + t)^3 has a digit past degree 2, and (1 - t) - (1 + t) = -2t is
    # negative at X = 2^w: neither is a sum of N r_k t^k up to degree d
    with pytest.raises(ArithmeticError, match="past degree 2"):
        _kronecker_sum({((1, 3),): 1}, 2, 8)
    with pytest.raises(ArithmeticError, match="past degree 1"):
        _kronecker_sum({((2, 1),): 1, ((1, 1),): -1}, 1, 8)
    assert _kronecker_sum({((1, 3),): 1, ((2, 3),): 1}, 3, 8) == [2, 0, 6, 0]


def test_spectral_molien_prime_order_closed_form():
    # (1/p) ((1 + t)^(p-1) + (p - 1) Phi_p(-t)): r_k = (C(p-1, k) + (p-1)(-1)^k) / p
    for p in (3, 5, 127, 1009):
        ranks = invariant_ranks((Cyclotomic(p),))
        assert ranks == tuple((comb(p - 1, k) + (p - 1) * (-1) ** k) // p for k in range(p)), p


def test_invariant_ranks_refuses_past_work_limit():
    spec = (Cyclotomic(30030),)  # d = 5760 with 64 divisors of the order
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"limit MAX_RANK_WORK = {MAX_RANK_WORK}"):
        invariant_ranks(spec)
    # many coprime block orders are refused before their divisors are listed
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
    with pytest.raises(ValueError, match="MAX_RANK_WORK"):
        invariant_ranks(tuple(Cyclotomic(p) for p in primes))
    assert time.perf_counter() - start < 1
