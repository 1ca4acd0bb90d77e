import itertools
import random
from collections import Counter
from math import gcd

import pytest

from nctori import wfun
from nctori.arith import factorize, totient
from nctori.wfun import AbelianGroup, CyclicDecomposition, max_finite_order, w_cost, w_cyclic, w_group, w_order
from test_golden import abelian_groups


def _coprime_partitions(torsion):
    """All partitions of the prime-power multiset into parts with pairwise
    distinct primes, as sorted tuples of part orders.

    The entries are placed one at a time, each into any part that lacks its
    prime or into a new part; the states of one level are a set, so partial
    partitions that coincide are extended once."""
    states = {()}
    for q in sorted(torsion):
        p = factorize(q)[0][0]
        nxt = set()
        for parts in states:
            nxt.add(tuple(sorted(parts + (q,))))
            for i, order in enumerate(parts):
                if order % p:
                    nxt.add(tuple(sorted(parts[:i] + (order * q,) + parts[i + 1 :])))
        states = nxt
    return states


def _reference_w_group(torsion):
    """The search that ``w_group`` replaces: the least (cost, part count,
    sorted parts) over every coprime partition of the torsion."""
    cost, _, parts = min(
        (sum(w_cyclic(n) for n in parts), len(parts), parts) for parts in _coprime_partitions(torsion)
    )
    return cost, parts


def _check_against_reference(torsion):
    g = AbelianGroup(tuple(torsion))
    w, decomp = w_group(g)
    assert (w, decomp.parts) == _reference_w_group(g.torsion), torsion
    z = g.torsion.count(2)
    o = sum(q % 2 for q in g.torsion)
    assert w == sum(totient(q) for q in g.torsion) + z - 2 * min(z, o), torsion
    multiplicity = Counter(factorize(q)[0][0] for q in g.torsion)
    assert len(decomp.parts) == max(multiplicity.values()), torsion


def test_w_order_table():
    expected = {2: 0, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 12: 4, 54: 18}
    for n, w in expected.items():
        assert w_order(n) == w, n
    assert w_order(1) == 0


def test_w_order_rejects_zero():
    with pytest.raises(ValueError):
        w_order(0)


def test_w_order_factor_two_cancellation():
    for m in range(1, 10_001, 2):
        assert w_order(2 * m) == w_order(m)


def test_w_order_additive_on_coprime_odds():
    odds = [3, 5, 7, 9, 15, 21, 25, 27, 33, 49]
    for a in odds:
        for b in odds:
            if gcd(a, b) == 1:
                assert w_order(a * b) == w_order(a) + w_order(b)


def test_w_cyclic():
    assert w_cyclic(2) == 2
    assert w_cyclic(6) == 2
    assert w_cyclic(3) == 2
    with pytest.raises(ValueError):
        w_cyclic(1)


def test_w_group_examples():
    assert w_group(AbelianGroup.from_factors([2, 2]))[0] == 4
    cost, decomp = w_group(AbelianGroup.from_factors([2, 3]))
    assert cost == 2 and decomp == CyclicDecomposition((6,))
    assert w_group(AbelianGroup()) == (0, CyclicDecomposition(()))
    assert w_group(AbelianGroup.from_factors([3, 3]))[0] == 4


def test_w_group_single_factor_matches_w_cyclic():
    for n in [2, 3, 4, 6, 8, 9, 12, 18, 30, 54]:
        cost, _ = w_group(AbelianGroup.from_factors([n]))
        assert cost == w_cyclic(n), n


def test_w_group_bounded_by_primary_sum():
    cases = [[2, 3, 5], [2, 2, 3], [4, 9], [2, 3, 3], [8, 3, 5], [2, 2, 2, 3]]
    for factors in cases:
        g = AbelianGroup.from_factors(factors)
        cost, decomp = w_group(g)
        assert cost <= sum(w_cyclic(q) for q in g.torsion)
        # the minimizer is a genuine decomposition of the torsion multiset
        rebuilt = AbelianGroup.from_factors(decomp.parts) if decomp.parts else AbelianGroup()
        assert rebuilt.torsion == g.torsion


def test_w_group_ignores_free_rank():
    a = AbelianGroup.from_factors([2, 3], free_rank=0)
    b = AbelianGroup.from_factors([2, 3], free_rank=5)
    assert w_group(a)[0] == w_group(b)[0]


def test_w_group_eleven_primes():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert w_group(AbelianGroup.from_factors(primes))[0] == 118
    cost, decomp = w_group(AbelianGroup.from_factors(primes + [31], free_rank=1))
    assert cost == 148 and decomp == CyclicDecomposition((200560490130,))


def test_w_cost_matches_w_group_on_many_primes():
    # W alone, with no decomposition built, on groups far past the partition
    # search: up to 1,500 distinct odd primes, with and without factors of 2
    # and repeats
    odd = [p for p in range(3, 13_000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))][:1500]
    rng = random.Random(1500)
    cases = [odd, odd[:100] + [2] * 40, odd[:50] * 3 + [2] * 200 + [4, 8], [9, 25, 49, 121] * 30 + [2] * 7]
    cases += [rng.sample(odd, rng.randint(1, 300)) + [2] * rng.randint(0, 300) for _ in range(20)]
    for factors in cases:
        for r in (0, 2):
            g = AbelianGroup.from_factors(factors, free_rank=r)
            z, o = g.torsion.count(2), sum(q % 2 for q in g.torsion)
            assert w_cost(g) == w_group(g)[0] == sum(map(totient, g.torsion)) + z - 2 * min(z, o)


def test_w_cost_factors_nothing(monkeypatch):
    # every phi(q) comes from the cached arith.totient; wfun itself factors none
    groups = [AbelianGroup(g.torsion, r) for g in abelian_groups(64) for r in range(3)]
    expected = [w_group(g)[0] for g in groups]

    def refuse(n):
        raise AssertionError(f"w_cost factored {n}")

    monkeypatch.setattr(wfun, "factorize", refuse)
    assert [w_cost(g) for g in groups] == expected


def _count_factorize(monkeypatch) -> list:
    calls = []

    def spy(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(wfun, "factorize", spy)
    return calls


def test_from_factors_factors_each_factor_once(monkeypatch):
    # the prime powers a factor splits into are not factored again
    calls = _count_factorize(monkeypatch)
    g = AbelianGroup.from_factors([12, 18, 35])
    assert calls == [12, 18, 35]
    assert g == AbelianGroup((2, 3, 4, 5, 7, 9))


def test_a_cyclic_torsion_is_one_part_with_no_factoring(monkeypatch):
    g = AbelianGroup.from_factors([8, 9, 5, 7, 11])
    calls = _count_factorize(monkeypatch)
    assert w_group(g) == (30, CyclicDecomposition((27720,)))
    assert calls == []


def test_w_group_matches_partition_search_exhaustively():
    # every torsion of 1 to 6 entries from these prime powers: 5,004 groups
    count = 0
    for size in range(1, 7):
        for torsion in itertools.combinations_with_replacement([2, 4, 8, 3, 9, 5, 25, 7, 11], size):
            _check_against_reference(torsion)
            count += 1
    assert count == 5004


def test_w_group_matches_partition_search_on_random_torsions():
    rng = random.Random(13)
    pool = [2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49, 11, 13, 17, 19]
    for _ in range(1000):
        _check_against_reference(rng.choices(pool, k=rng.randint(1, 8)))


def test_w_group_with_repeated_primes():
    # few primes, each repeated: many paths reach the same partial partition
    assert w_group(AbelianGroup.from_factors([210] * 4)) == (48, CyclicDecomposition((210,) * 4))
    assert w_group(AbelianGroup.from_factors([2310] * 3)) == (66, CyclicDecomposition((2310,) * 3))


def test_abelian_group_canonicalization():
    g = AbelianGroup.from_factors([6, 4])
    assert g.torsion == (2, 3, 4)
    with pytest.raises(ValueError):
        AbelianGroup((6,))  # not a prime power
    with pytest.raises(ValueError):
        AbelianGroup.from_factors([1])
    with pytest.raises(ValueError, match="free_rank must be nonnegative"):
        AbelianGroup((), -1)
    assert AbelianGroup().is_trivial
    assert str(AbelianGroup.from_factors([9, 2], free_rank=2)) == "Z2xZ9xZ^2"


def test_max_finite_order_small_dimensions():
    # independently checkable: largest torsion order in GL_d(Z) for small d
    assert max_finite_order(1) == 2
    assert max_finite_order(2) == 6
    assert max_finite_order(3) == 6
    assert max_finite_order(4) == 12
    assert max_finite_order(5) == 12
    assert max_finite_order(6) == 30
    with pytest.raises(ValueError, match="dimension must be positive"):
        max_finite_order(0)


def test_max_finite_order_is_w_extremal():
    for d in range(1, 13):
        n_star = max_finite_order(d)
        assert w_order(n_star) <= d
        # nothing bigger fits in a generous search window
        assert all(w_order(n) > d for n in range(n_star + 1, 4 * n_star))


def test_max_finite_order_matches_brute_force():
    window = 10**5  # past every n with w_order(n) <= 30 (the largest is 27720)
    costs = {n: w_order(n) for n in range(2, window)}
    for d in range(1, 31):
        assert max_finite_order(d) == max(n for n, w in costs.items() if w <= d), d


def test_max_finite_order_large_dimension():
    n = max_finite_order(300)
    assert w_order(n) <= 300 and n >= max_finite_order(299)
