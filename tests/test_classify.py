import json
import random

import pytest

from nctori import classify, wfun
from nctori.arith import cyclotomic, factorize
from nctori.exactlin import Matrix, block_diag, companion, order
from nctori.invariants import (
    Cyclotomic,
    Identity,
    NegCyclotomic,
    block_label,
    parse_block_spec,
    realize,
    s1,
    spec_dim,
)
from nctori.ktheory import GradedRank, at_least, exact, factor_k, kunneth_all, torus_k
from nctori.classify import (
    EXISTS,
    GAP_ONE,
    W_TOO_BIG,
    Realization,
    _best_blocks,
    _part,
    af_paper,
    analyze_action,
    classify_cyclic,
    classify_fg,
    classify_group,
    recognize_blocks,
    report_json,
    verdict_json,
)
from nctori.theta import is_invariant, is_nondegenerate, nondegenerate_invariant_exists
from nctori.wfun import AbelianGroup, w_group, w_order
from oracles import enumerate_specs


def test_af_paper_examples():
    assert af_paper(6)
    assert not af_paper(7)
    assert not af_paper(54)  # 2 * 3^3 fits neither closed form
    assert af_paper(8)
    assert af_paper(2)
    assert af_paper(3) and af_paper(9) and not af_paper(27)
    assert af_paper(45) and not af_paper(50)
    assert af_paper(14) and not af_paper(28)
    assert af_paper(12) and af_paper(48)
    with pytest.raises(ValueError):
        af_paper(1)


def test_classify_cyclic_exists_examples():
    v = classify_cyclic(2, 6)
    assert v.simple_action_exists and v.is_af_computed and v.is_af_paper_predicate

    v = classify_cyclic(6, 9)
    assert v.simple_action_exists and v.is_af_computed and v.is_af_paper_predicate
    assert [block_label(b) for b in v.realization.blocks] == ["C9"]

    v = classify_cyclic(6, 7)
    assert v.simple_action_exists and v.is_at and not v.is_af_computed
    assert v.k.k1 == exact(2)


def test_classify_cyclic_failure_modes():
    v = classify_cyclic(3, 3)
    assert v.realizable_in_gl_d and not v.simple_action_exists and v.reason == GAP_ONE

    v = classify_cyclic(2, 5)
    assert not v.realizable_in_gl_d and v.reason == W_TOO_BIG

    v = classify_cyclic(4, 12)
    assert v.simple_action_exists and v.is_af_computed and v.is_af_paper_predicate
    assert sorted(block_label(b) for b in v.realization.blocks) == ["C3", "C4"]


def test_classify_cyclic_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_cyclic(2, 1)
    with pytest.raises(ValueError):
        classify_cyclic(0, 3)


def test_divergent_orders():
    v = classify_cyclic(18, 54)
    assert v.simple_action_exists
    assert [block_label(b) for b in v.realization.blocks] == ["negC27"]
    assert v.is_af_computed and not v.is_af_paper_predicate and v.divergence_flag

    v = classify_cyclic(20, 50)
    assert v.is_af_computed and not v.is_af_paper_predicate and v.divergence_flag


def test_sign_absorption_picks_low_k1_choice():
    # 42 = 2 * 3 * 7: negating the 7-block zeroes its odd invariant sum
    v = classify_cyclic(8, 42)
    labels = sorted(block_label(b) for b in v.realization.blocks)
    assert labels == ["C3", "negC7"]
    assert v.is_af_computed and v.is_af_paper_predicate


def _reference_candidate_blocks(n):
    # every choice of the negated odd block, each a candidate block list
    fac = factorize(n)
    if n % 4 == 2:
        odd = [(p, e) for p, e in fac if p != 2]
        return [
            tuple(
                NegCyclotomic(p**e) if idx == pick else Cyclotomic(p**e)
                for idx, (p, e) in enumerate(odd)
            )
            for pick in range(len(odd))
        ]
    return [tuple(Cyclotomic(p**e) for p, e in fac)]


def _reference_best_blocks(n):
    # least summed standalone s1 over the candidates; ties to the largest negated block
    def sort_key(blocks):
        total = sum(s1((b,)) for b in blocks)
        negated = max((b.n for b in blocks if isinstance(b, NegCyclotomic)), default=0)
        return (total, -negated)

    return min(_reference_candidate_blocks(n), key=sort_key)


def test_block_choice_matches_the_candidate_search():
    # the direct argmin over the odd prime powers picks what a search over
    # every candidate block list picks, ties included
    for n in range(3, 4000):
        assert _best_blocks(factorize(n)) == _reference_best_blocks(n), n


def test_flip_and_gap_one_for_order_two():
    v = classify_cyclic(4, 2)
    assert v.simple_action_exists
    assert realize(v.realization.blocks) == -Matrix.identity(4)
    assert v.is_af_computed
    # the closed-form predicate needs gap zero, so the full flip diverges
    assert not v.is_af_paper_predicate and v.divergence_flag

    v = classify_cyclic(1, 2)
    assert v.realizable_in_gl_d and v.reason == GAP_ONE


def test_flip_and_group_route_disagree_on_af_paper_in_dimension_two():
    # The same -I_2, two gaps: the flip measures against w_order(2) = 0, the
    # group route against w_cyclic(2) = 2, and only gap zero passes AF_paper.
    flip = verdict_json(classify_cyclic(2, 2))
    group = verdict_json(classify_group(2, AbelianGroup.from_factors([2])))
    assert flip["blocks"] == group["blocks"] == ["C2", "C2"]
    assert flip["AF_computed"] and group["AF_computed"]
    assert (flip["AF_paper"], flip["divergence"]) == (False, True)
    assert (group["AF_paper"], group["divergence"]) == (True, False)


def test_verdict_leaves_realization_matrix_unbuilt():
    v = classify_cyclic(300, 7)
    verdict_json(v)
    assert Realization.__slots__ == ("blocks", "order")
    assert not hasattr(v.realization, "__dict__")  # so no other attribute can be set on it
    assert realize(v.realization.blocks).nrows == 300


def test_realizations_verify():
    for d, n in [(2, 6), (6, 9), (6, 7), (4, 12), (2, 2), (8, 42), (10, 9), (7, 9)]:
        v = classify_cyclic(d, n)
        if v.realization is None:
            continue
        a = realize(v.realization.blocks)
        assert a.nrows == d
        assert order(a, 200) == v.realization.order == n
        if v.simple_action_exists:
            exists, witness = nondegenerate_invariant_exists(a)
            assert exists
            assert is_invariant(witness, a)
            assert is_nondegenerate(witness)


def test_gap_one_realization_has_no_witness():
    for d, n in [(3, 3), (3, 4), (5, 8), (1, 2)]:
        v = classify_cyclic(d, n)
        assert v.reason == GAP_ONE
        exists, witness = nondegenerate_invariant_exists(realize(v.realization.blocks))
        assert not exists
        assert witness is None


def _per_block_fold(d: int, w: int, parts: tuple[int, ...], free_rank: int):
    """(k0, k1, AF_computed, AF_paper) of an ``exists`` verdict folded block
    by block, in part order, as before the parts were cached: one flip factor
    for a Z_2 part, factor_k of each block otherwise, then the torus."""
    factors = []
    for n_l in parts:
        factors += [GradedRank(at_least(1), exact(0))] if n_l == 2 else map(factor_k, _best_blocks(factorize(n_l)))
    gap = d - w
    k = kunneth_all(factors + [torus_k(gap + free_rank)])
    paper = not free_rank and gap == 0 and all(af_paper(n_l) for n_l in parts)
    return k.k0, k.k1, not free_rank and k.k1 == exact(0), paper


@pytest.mark.parametrize("cold", [True, False])
def test_cached_part_fold_equals_the_per_block_fold(cold):
    # each part's Kunneth factor is folded once and cached; the product is
    # associative with KUNNETH_UNIT as identity, so the verdict's ranks and
    # flags are those of the fold over every block, cold or warm.  Z_n goes
    # through classify_fg (classify_cyclic gives Z_2 the flip -I_d) and, from
    # n = 3 on, through classify_cyclic too
    groups = [AbelianGroup.from_factors([n]) for n in range(2, 401)] + [
        AbelianGroup.from_factors([2, 2, 3]),
        AbelianGroup.from_factors([4, 6, 10]),
        AbelianGroup.from_factors([30, 10, 28]),
        AbelianGroup.from_factors([6], free_rank=2),
    ]
    exists = 0
    for g in groups:
        w, decomp = w_group(g)
        for d in range(1, 65):
            verdicts = [classify_fg]
            if decomp.parts[0] > 2 and not g.free_rank and len(decomp.parts) == 1:
                verdicts.append(lambda d, g: classify_cyclic(d, decomp.parts[0]))
            for verdict in verdicts:
                if cold:
                    _part.cache_clear()
                v = verdict(d, g)
                if v.reason != EXISTS:
                    continue
                exists += 1
                got = (v.k.k0, v.k.k1, v.is_af_computed, v.is_af_paper_predicate)
                assert got == _per_block_fold(d, w, decomp.parts, g.free_rank), (d, str(g))
    assert exists > 20_000


def test_part_cache_is_bounded_and_hit_by_a_repeated_order():
    assert isinstance(_part.cache_info().maxsize, int)
    _part.cache_clear()
    classify_cyclic(20, 45)
    hits = _part.cache_info().hits
    classify_cyclic(31, 45)
    assert _part.cache_info().hits == hits + 1 and _part.cache_info().currsize == 1


def _factorize_spy(monkeypatch, module) -> list:
    """The orders that ``module`` hands to ``factorize`` from now on."""
    calls, original = [], module.factorize

    def spy(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(module, "factorize", spy)
    return calls


def test_w_order_is_computed_once_per_order(monkeypatch):
    # W depends on the order alone: a cached order is not factored again for
    # a verdict at another dimension
    calls = _factorize_spy(monkeypatch, wfun)
    w_order.cache_clear()
    first = classify_cyclic(40, 63)
    assert calls == [63]
    second = classify_cyclic(41, 63)
    assert calls == [63]
    assert first.w == second.w == 12
    assert isinstance(w_order.cache_info().maxsize, int)


def test_a_new_part_factors_its_order_once(monkeypatch):
    # the blocks and the AF flag of a part are read off one factorization
    calls = _factorize_spy(monkeypatch, classify)
    _part.cache_clear()
    blocks, _, paper = _part(90)
    assert calls == [90]
    assert [block_label(b) for b in blocks] == ["negC9", "C5"] and paper


def test_classify_group_examples():
    v = classify_group(2, AbelianGroup.from_factors([2]))
    assert v.simple_action_exists and v.is_af_computed and v.is_af_paper_predicate

    v = classify_group(4, AbelianGroup.from_factors([2, 2]))
    assert v.simple_action_exists and v.is_af_computed and v.is_af_paper_predicate
    assert realize(v.realization.blocks) == -Matrix.identity(4)

    v = classify_group(3, AbelianGroup.from_factors([2, 2]))
    assert not v.realizable_in_gl_d and v.reason == W_TOO_BIG

    v = classify_group(2, AbelianGroup.from_factors([2, 3]))
    assert v.simple_action_exists and v.is_af_computed
    assert [block_label(b) for b in v.realization.blocks] == ["negC3"]
    assert v.realization.order == 6


def test_a_group_refusal_builds_no_decomposition(monkeypatch):
    cases = [([2, 2], 0), ([2, 3, 4], 0), ([30, 10, 28], 2), ([7] * 5, 1)]
    groups = [AbelianGroup.from_factors(factors, free_rank=r) for factors, r in cases]
    ws = [w_group(g)[0] for g in groups]

    def no_decomposition(g):
        raise AssertionError("a refusal built a decomposition")

    monkeypatch.setattr(classify, "w_decomposition", no_decomposition)
    for g, w in zip(groups, ws):
        for d in (1, w - 1):
            verdicts = [classify_fg(d, g)] + ([] if g.free_rank else [classify_group(d, g)])
            for v in verdicts:
                assert (v.reason, v.w, v.realization, v.k) == (W_TOO_BIG, w, None, None), (d, str(g))


def test_classify_group_gap_one():
    v = classify_group(5, AbelianGroup.from_factors([2, 2]))
    assert v.realizable_in_gl_d and not v.simple_action_exists and v.reason == GAP_ONE
    assert not nondegenerate_invariant_exists(realize(v.realization.blocks))[0]


def test_classify_group_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_group(2, AbelianGroup())
    with pytest.raises(ValueError):
        classify_group(2, AbelianGroup.from_factors([2], free_rank=1))


def test_classify_fg_examples():
    v = classify_fg(3, AbelianGroup.from_factors([3], free_rank=1))
    assert v.simple_action_exists
    assert v.k == GradedRank(at_least(2), at_least(2))
    assert not v.is_af_computed

    v = classify_fg(2, AbelianGroup((), free_rank=1))
    assert v.simple_action_exists and v.k == torus_k(3)
    assert not v.is_af_computed

    a = classify_fg(6, AbelianGroup.from_factors([9]))
    b = classify_cyclic(6, 9)
    assert (a.simple_action_exists, a.k, a.is_af_computed, a.is_af_paper_predicate) == (
        b.simple_action_exists,
        b.k,
        b.is_af_computed,
        b.is_af_paper_predicate,
    )


def test_classify_fg_pure_torus_reduction():
    for d in (2, 3, 5):
        for r in (0, 1, 2):
            if d == 1 and r == 0:
                continue
            v = classify_fg(d, AbelianGroup((), free_rank=r))
            assert v.k == torus_k(d + r), (d, r)


def test_classify_fg_gap_one_without_free_rank_fails():
    v = classify_fg(3, AbelianGroup.from_factors([3]))
    assert not v.simple_action_exists and v.reason == GAP_ONE


def test_analyze_action_flip():
    report = analyze_action(-Matrix.identity(4))
    assert report.order == 2 and report.free
    assert report.s1 == 0 and report.k1 == exact(0)
    assert report.theta_exists
    assert report.oracle_ranks == report.spectrum_ranks == (1, 0, 6, 0, 1)


def test_analyze_action_gap_one_matrix():
    a = block_diag([companion(cyclotomic(3)), Matrix.identity(1)])
    report = analyze_action(a)
    assert not report.free
    assert report.s1 is None and "not free" in report.s1_note
    assert not report.theta_exists


def test_analyze_action_companion_phi9():
    report = analyze_action(companion(cyclotomic(9)))
    assert report.order == 9 and report.free and report.s1 == 0
    assert report.blocks == (Cyclotomic(9),)


def test_analyze_action_checks_inputs():
    with pytest.raises(ValueError):
        analyze_action(Matrix([[1, 1], [0, 1]]))  # infinite order
    with pytest.raises(ValueError, match="analyze_action requires a nonempty square matrix"):
        analyze_action(Matrix([], ncols=0))


def test_analyze_action_refuses_ranks_that_disagree(monkeypatch):
    # the Molien ranks check the spectrum ranks: a perturbed degree is an error
    a = companion(cyclotomic(9))
    molien = classify.invariant_ranks_molien

    def perturbed(matrix, n):
        ranks = molien(matrix, n)
        return ranks[:1] + (ranks[1] + 1,) + ranks[2:]

    monkeypatch.setattr(classify, "invariant_ranks_molien", perturbed)
    with pytest.raises(ArithmeticError, match=r"Molien ranks \(1, 1, 3, 0, 3, 0, 1\) differ from spectrum "
                                              r"ranks \(1, 0, 3, 0, 3, 0, 1\)"):
        analyze_action(a)


def test_recognize_blocks():
    assert recognize_blocks(-Matrix.identity(3)) == (Cyclotomic(2),) * 3
    assert recognize_blocks(companion(cyclotomic(9))) == (Cyclotomic(9),)
    a = block_diag([companion(cyclotomic(3)), Matrix.identity(2)])
    assert recognize_blocks(a) == (Cyclotomic(3), Identity(2))
    # the cyclotomic type, not the layout: the negated Phi_5 companion has polynomial Phi_10
    assert recognize_blocks(realize((NegCyclotomic(5),))) == (Cyclotomic(10),)
    assert recognize_blocks(Matrix([[0, 1], [1, 0]])) == (Cyclotomic(2), Identity(1))
    assert recognize_blocks(Matrix([[1, 1], [0, 1]])) is None


def test_analyze_action_is_conjugation_invariant(unimodular_pair):
    rng = random.Random(2015)
    small = [s for s in enumerate_specs(8) if spec_dim(s) >= 4]
    specs = rng.sample(small, 8) + [
        parse_block_spec(t)
        for t in ("C5+C5", "negC5+C10", "C16", "C12+C12", "C16+C5+I1", "negC9+C7+I2", "C8+C8+C8+C8")
    ]
    for spec in specs:
        a = realize(spec)
        d = a.nrows
        p, q = unimodular_pair(rng, d, 2 * d)
        assert p @ q == Matrix.identity(d)
        conj = analyze_action(p @ a @ q)
        assert report_json(conj) == report_json(analyze_action(a)), spec
        if d <= 12:
            assert conj.oracle_ranks == conj.spectrum_ranks, spec
    assert conj.dim == 16 and conj.free and conj.s1 == 0


def test_af_implies_at_and_k_presence():
    for d in range(1, 9):
        for n in range(2, 40):
            v = classify_cyclic(d, n)
            assert not (v.is_af_computed and not v.is_at), (d, n)
            assert (v.k is not None) == v.simple_action_exists, (d, n)
            assert v.divergence_flag == (v.is_af_computed != v.is_af_paper_predicate)
            # a positive gap leaves a torus factor with k1 >= 1, except for
            # n = 2 where the realization is the full flip with no residual
            if v.simple_action_exists and d - v.w > 1 and n != 2:
                assert not v.is_af_computed, (d, n)


def test_rotation_algebra_completeness():
    exists = {n for n in range(2, 101) if classify_cyclic(2, n).simple_action_exists}
    assert exists == {2, 3, 4, 6}


def test_odd_dimension_shift():
    for d in (5, 7, 9, 11):
        for n in range(2, 201):
            assert (
                classify_cyclic(d, n).simple_action_exists
                == classify_cyclic(d - 3, n).simple_action_exists
            ), (d, n)


def test_verdict_json_schema():
    keys = {
        "d", "input", "realizable", "simple_action", "reason", "order",
        "blocks", "k0", "k1", "AT", "AF_computed", "AF_paper", "divergence",
    }
    for v in [classify_cyclic(2, 6), classify_cyclic(3, 3), classify_cyclic(2, 5)]:
        payload = verdict_json(v)
        assert set(payload) == keys
        encoded = json.dumps(payload)
        assert json.loads(encoded) == payload
    payload = verdict_json(classify_cyclic(2, 6))
    assert payload["k1"] == {"kind": "exact", "value": 0}
    assert payload["order"] == 6 and payload["blocks"] == ["negC3"]
    payload = verdict_json(classify_cyclic(2, 5))
    assert payload["order"] == 0 and payload["blocks"] == [] and payload["k0"] is None


def test_report_json_roundtrip():
    payload = report_json(analyze_action(-Matrix.identity(2)))
    assert json.loads(json.dumps(payload)) == payload
    assert payload["free_outside_origin"] is True


def test_gap_one_pairs_match_formula():
    for d in range(1, 8):
        for n in range(2, 60):
            v = classify_cyclic(d, n)
            should_gap = w_order(n) <= d and d - w_order(n) == 1
            assert (v.reason == GAP_ONE) == should_gap, (d, n)
