import itertools

import pytest
from hypothesis import given, strategies as st

from nctori import invariants
from nctori.invariants import Cyclotomic, Identity, NegCyclotomic
from nctori.ktheory import (
    KUNNETH_UNIT,
    GradedRank,
    RankInfo,
    at_least,
    exact,
    factor_k,
    kunneth,
    kunneth_all,
    kunneth_torus,
    torus_k,
)

rank_infos = st.builds(
    lambda kind, v: RankInfo(kind, v),
    st.sampled_from(["exact", "at_least"]),
    st.integers(min_value=0, max_value=9),
)
graded = st.builds(GradedRank, rank_infos, rank_infos)


def _mul(a: RankInfo, b: RankInfo) -> RankInfo:
    """The product rule before the Kunneth entries were fused: Exact(0)
    annihilates, otherwise exact only when both factors are."""
    if (a.is_exact and a.value == 0) or (b.is_exact and b.value == 0):
        return exact(0)
    return RankInfo("exact" if a.is_exact and b.is_exact else "at_least", a.value * b.value)


def _add(a: RankInfo, b: RankInfo) -> RankInfo:
    return RankInfo("exact" if a.is_exact and b.is_exact else "at_least", a.value + b.value)


def test_kunneth_matches_the_product_and_sum_rule():
    infos = [RankInfo(kind, v) for kind in ("exact", "at_least") for v in (0, 1, 2, 5)]
    gradeds = [GradedRank(k0, k1) for k0 in infos for k1 in infos]
    for a, b in itertools.product(gradeds, repeat=2):
        expected = GradedRank(
            _add(_mul(a.k0, b.k0), _mul(a.k1, b.k1)),
            _add(_mul(a.k0, b.k1), _mul(a.k1, b.k0)),
        )
        assert kunneth(a, b) == expected, (a, b)


def test_unit_is_two_sided():
    samples = [
        GradedRank(exact(2), exact(2)),
        GradedRank(at_least(1), exact(0)),
        GradedRank(at_least(3), at_least(5)),
    ]
    for g in samples:
        assert kunneth(KUNNETH_UNIT, g) == g
        assert kunneth(g, KUNNETH_UNIT) == g
        # so a product folds from its first factor; the unit is the empty product
        assert kunneth_all([g]) == g
        assert kunneth_all(iter([g, g])) == kunneth(g, g)
    assert kunneth_all([]) == KUNNETH_UNIT


def test_two_torus_squared_is_four_torus():
    two = GradedRank(exact(2), exact(2))
    assert kunneth(two, two) == GradedRank(exact(8), exact(8))


def test_lower_bound_propagation():
    a = GradedRank(at_least(1), exact(0))
    b = GradedRank(exact(2), exact(2))
    assert kunneth(a, b) == GradedRank(at_least(2), at_least(2))
    assert kunneth(a, a) == GradedRank(at_least(1), exact(0))


@given(graded, graded)
def test_kunneth_commutative(a, b):
    assert kunneth(a, b) == kunneth(b, a)


@given(graded, graded, graded)
def test_kunneth_associative(a, b, c):
    assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))


def test_af_detection_lemma_exhaustively():
    # if every operand has k1 = Exact(0), so does the product
    k0s = [exact(0), exact(1), exact(3), at_least(1), at_least(2)]
    ops = [GradedRank(k0, exact(0)) for k0 in k0s]
    for els in itertools.product(ops, repeat=3):
        assert kunneth_all(els).k1 == exact(0)


def test_torus_ranks():
    assert torus_k(0) == GradedRank(exact(1), exact(0))
    assert torus_k(1) == GradedRank(exact(1), exact(1))
    assert torus_k(2) == kunneth(torus_k(1), torus_k(1))
    power = KUNNETH_UNIT
    for m in range(11):
        assert torus_k(m) == power, m
        power = kunneth(power, torus_k(1))
    with pytest.raises(ValueError):
        torus_k(-1)


def test_closed_torus_factor_equals_the_kunneth_product():
    infos = [RankInfo(kind, v) for kind in ("exact", "at_least") for v in (0, 1, 3)]
    for a in (GradedRank(k0, k1) for k0 in infos for k1 in infos):
        for m in range(13):
            assert kunneth_torus(a, m) == kunneth(a, torus_k(m)), (a, m)
    with pytest.raises(ValueError):
        kunneth_torus(KUNNETH_UNIT, -1)


def test_factor_k_examples():
    assert factor_k(Cyclotomic(9)) == GradedRank(at_least(1), exact(0))
    assert factor_k(Cyclotomic(7)) == GradedRank(at_least(1), exact(2))
    assert factor_k(NegCyclotomic(5)) == GradedRank(at_least(1), exact(0))


def test_factor_k_rejects_identity_blocks():
    with pytest.raises(ValueError):
        factor_k(Identity(2))
    with pytest.raises(TypeError, match="not a block: 'C5'"):
        factor_k("C5")


def test_factor_k_degenerate_negated_two_block():
    # the negated 2-block realizes the 1x1 identity: a trivial (vacuously
    # free) action on Z, whose crossed product is just functions on the circle
    assert factor_k(NegCyclotomic(2)) == GradedRank(at_least(1), exact(1))


def test_factor_k_of_an_odd_negated_block_computes_no_ranks(monkeypatch):
    # no odd exterior power of -C_q fixes a vector for odd q; even q keeps
    # the general route through invariant_ranks
    calls, ranks = [], invariants.invariant_ranks

    def spy(spec):
        calls.append(spec)
        return ranks(spec)

    monkeypatch.setattr(invariants, "invariant_ranks", spy)
    for q in range(3, 200, 2):
        assert factor_k(NegCyclotomic(q)) == GradedRank(at_least(1), exact(0)), q
    assert calls == []
    assert factor_k(NegCyclotomic(2)).k1 == exact(1)
    assert calls == [(NegCyclotomic(2),)]


def test_rank_info_validation():
    with pytest.raises(ValueError):
        RankInfo("about", 1)
    with pytest.raises(ValueError):
        RankInfo("exact", -1)
    assert str(exact(3)) == "3"
    assert str(at_least(2)) == ">=2"
