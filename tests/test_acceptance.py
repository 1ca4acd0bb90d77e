"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is equality; each test also
checks its stated wall-clock budget and prints one PASS line (visible with
pytest -s or -rA).

The oracle-equivalence sweep (criterion 8) runs the brute-force compound
matrix oracle exhaustively through total dimension 8 (deduplicating specs
that realize the same matrix) and covers dimensions 9 and 10 with every
one- and two-block spec plus a fixed-seed random sample; the family of all
block multisets through dimension 10 contains 17,464 specs, which is hours
of compound-rank work and far outside the two-minute budget.
"""

import itertools
import random
import time

from nctori.arith import factorize
from nctori.classify import (
    GAP_ONE,
    analyze_action,
    classify_cyclic,
    classify_fg,
    classify_group,
)
from nctori.exactlin import Matrix, order
from nctori.invariants import (
    Cyclotomic,
    block_order,
    free_outside_origin,
    invariant_rank,
    invariant_rank_oracle,
    invariant_ranks,
    realize,
    s1,
    spec_dim,
)
from nctori.ktheory import GradedRank, KUNNETH_UNIT, RankInfo, at_least, exact, kunneth, kunneth_all, torus_k
from nctori.theta import nondegenerate_invariant_exists
from nctori.wfun import AbelianGroup, w_group, w_order
from oracles import enumerate_specs


def _report(number, message):
    print(f"criterion {number} PASS: {message}")


def test_criterion_01_w_tables():
    start = time.time()
    expected = {2: 0, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 12: 4, 54: 18}
    for n, w in expected.items():
        assert w_order(n) == w, n
    assert w_group(AbelianGroup.from_factors([2, 2]))[0] == 4
    assert w_group(AbelianGroup.from_factors([2, 3]))[0] == 2
    elapsed = time.time() - start
    assert elapsed < 1
    _report(1, f"w_order table and w_group examples ({elapsed:.2f}s < 1s)")


def test_criterion_02_order_nine_example():
    start = time.time()
    spec = (Cyclotomic(9),)
    a = realize(spec)
    for m in (1, 3, 5):
        assert invariant_rank(spec, m) == 0
        assert invariant_rank_oracle(a, m) == 0
    assert s1(spec) == 0
    verdict = classify_cyclic(6, 9)
    assert verdict.simple_action_exists and verdict.is_af_computed
    elapsed = time.time() - start
    assert elapsed < 5
    _report(2, f"order-9 invariant ranks vanish by both routes; (6,9) is AF ({elapsed:.2f}s < 5s)")


def test_criterion_03_prime_closed_form():
    start = time.time()
    values = {}
    for n in (3, 5, 7, 11):
        closed_form = (2 ** (n - 1) - (n - 1) ** 2) // (2 * n)
        values[n] = closed_form
        assert s1((Cyclotomic(n),)) == closed_form, n
    assert values == {3: 0, 5: 0, 7: 2, 11: 42}
    oracle_s1 = sum(
        invariant_rank_oracle(realize((Cyclotomic(7),)), m) for m in (1, 3, 5)
    )
    assert oracle_s1 == 2
    elapsed = time.time() - start
    assert elapsed < 10
    _report(3, f"prime closed form matches, n=7 oracle-checked ({elapsed:.2f}s < 10s)")


def test_criterion_04_even_order_vanishing():
    start = time.time()
    checked = 0
    for spec in enumerate_specs(10):
        if not spec:
            continue
        orders = {block_order(b) for b in spec}
        if len(orders) != 1:
            continue  # mixed block orders never act freely
        n = orders.pop()
        if n % 2:
            continue
        assert free_outside_origin(realize(spec)), spec
        assert s1(spec) == 0, spec
        checked += 1
    assert checked >= 40
    elapsed = time.time() - start
    assert elapsed < 30
    _report(4, f"s1 = 0 on all {checked} free even-order specs of dim <= 10 ({elapsed:.1f}s < 30s)")


def test_criterion_05_gap_one_obstruction():
    start = time.time()
    gap_one_pairs = []
    for d in range(1, 11):
        for n in range(2, 101):
            w = w_order(n)
            if w <= d and d - w == 1:
                gap_one_pairs.append((d, n))
    assert gap_one_pairs  # the regime is populated
    for d, n in gap_one_pairs:
        v = classify_cyclic(d, n)
        assert v.reason == GAP_ONE, (d, n)
        assert not nondegenerate_invariant_exists(realize(v.realization.blocks))[0], (d, n)
    for d in range(1, 11):
        for n in range(2, 101):
            expected = w_order(n) <= d and d - w_order(n) == 1
            assert (classify_cyclic(d, n).reason == GAP_ONE) == expected, (d, n)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(
        5,
        f"no invariant nondegenerate form on all {len(gap_one_pairs)} gap-one pairs; "
        f"classification flags exactly these ({elapsed:.1f}s < 60s)",
    )


def _abelian_groups_up_to(max_order):
    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    for total in range(2, max_order + 1):
        shapes = []
        for p, e in factorize(total):
            shapes.append([tuple(p**part for part in lam) for lam in partitions(e)])
        for combo in itertools.product(*shapes):
            yield AbelianGroup(tuple(q for group in combo for q in group))


def test_criterion_06_rotation_algebra_completeness():
    start = time.time()
    exists_set = {n for n in range(2, 101) if classify_cyclic(2, n).simple_action_exists}
    assert exists_set == {2, 3, 4, 6}
    for n in exists_set:
        assert classify_cyclic(2, n).is_af_computed, n
    admitted = set()
    for g in _abelian_groups_up_to(24):
        if classify_group(2, g).simple_action_exists:
            admitted.add(g)
    assert admitted == {
        AbelianGroup((2,)),
        AbelianGroup((3,)),
        AbelianGroup((4,)),
        AbelianGroup((2, 3)),
    }
    elapsed = time.time() - start
    assert elapsed < 30
    _report(6, f"dimension-2 actions are exactly Z2, Z3, Z4, Z6, all AF ({elapsed:.1f}s < 30s)")


def test_criterion_07_existence_iff_sweep():
    start = time.time()
    for d in range(1, 13):
        for n in range(2, 201):
            v = classify_cyclic(d, n)
            gap = d - w_order(n)
            assert v.simple_action_exists == (gap == 0 or gap > 1), (d, n)
            if d % 2 == 0:
                assert v.simple_action_exists == (w_order(n) <= d), (d, n)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(7, f"existence iff gap 0 or gap > 1 over d <= 12, n <= 200 ({elapsed:.1f}s < 60s)")


def test_criterion_08_oracle_equivalence():
    start = time.time()
    specs = enumerate_specs(10)
    small = [s for s in specs if spec_dim(s) <= 8]
    big = [s for s in specs if spec_dim(s) > 8]
    family = small + [s for s in big if len(s) <= 2]
    rng = random.Random(20250808)
    family += rng.sample([s for s in big if len(s) > 2 and spec_dim(s) == 9], 120)
    family += rng.sample([s for s in big if len(s) > 2 and spec_dim(s) == 10], 80)

    oracle_cache = {}
    for spec in family:
        ranks = invariant_ranks(spec)
        a = realize(spec)
        if a not in oracle_cache:
            oracle_cache[a] = tuple(invariant_rank_oracle(a, m) for m in range(a.nrows + 1))
        assert ranks == oracle_cache[a], spec
    elapsed = time.time() - start
    assert elapsed < 120
    _report(
        8,
        f"spectral Molien ranks match the compound-matrix oracle on {len(family)} specs "
        f"({len(oracle_cache)} distinct matrices, exhaustive through dim 8) ({elapsed:.1f}s < 120s)",
    )


def test_criterion_09_divergence_ledger():
    start = time.time()
    for d, n in ((18, 54), (20, 50)):
        v = classify_cyclic(d, n)
        assert v.simple_action_exists, (d, n)
        assert v.is_af_computed and not v.is_af_paper_predicate and v.divergence_flag, (d, n)
    for n in range(3, 49):
        d = w_order(n)
        v = classify_cyclic(d, n)
        assert not v.divergence_flag, n
    elapsed = time.time() - start
    assert elapsed < 30
    _report(9, f"orders 54 and 50 diverge; no divergence at gap 0 for n <= 48 ({elapsed:.1f}s < 30s)")


def test_criterion_10_kunneth_algebra():
    start = time.time()
    rng = random.Random(424242)

    def random_rank():
        kind = rng.choice(["exact", "at_least"])
        return RankInfo(kind, rng.randint(0, 6))

    unit_samples = []
    for _ in range(1000):
        a = GradedRank(random_rank(), random_rank())
        b = GradedRank(random_rank(), random_rank())
        c = GradedRank(random_rank(), random_rank())
        assert kunneth(a, b) == kunneth(b, a)
        assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))
        assert kunneth(KUNNETH_UNIT, a) == a
        unit_samples.append(a)
    power = KUNNETH_UNIT
    for m in range(11):
        assert torus_k(m) == power
        power = kunneth(power, torus_k(1))
    k0_options = [exact(0), exact(1), exact(2), at_least(1), at_least(3)]
    for k0s in itertools.product(k0_options, repeat=3):
        operands = [GradedRank(k0, exact(0)) for k0 in k0s]
        assert kunneth_all(operands).k1 == exact(0)
    elapsed = time.time() - start
    assert elapsed < 5
    _report(10, f"Künneth unit/commutativity/associativity and AF lemma hold ({elapsed:.1f}s < 5s)")


def test_criterion_11_full_flip_recovery():
    start = time.time()
    for d in (2, 3, 4, 6):
        report = analyze_action(-Matrix.identity(d))
        assert report.order == 2 and report.free, d
        assert report.s1 == 0, d
        assert report.theta_exists, d
    elapsed = time.time() - start
    assert elapsed < 5
    _report(11, f"full flips in dimensions 2,3,4,6 are free with s1 = 0 and a witness ({elapsed:.1f}s < 5s)")


def test_criterion_12_fg_instances():
    start = time.time()
    v = classify_fg(3, AbelianGroup.from_factors([3], free_rank=1))
    assert v.simple_action_exists
    assert v.k == GradedRank(at_least(2), at_least(2))
    assert not v.is_af_computed
    for d in (1, 2, 4):
        for r in (0, 1, 3):
            if d == 1 and r == 0:
                continue  # bare gap-one torus with no free part: no action
            v = classify_fg(d, AbelianGroup((), free_rank=r))
            assert v.k == torus_k(d + r), (d, r)
    elapsed = time.time() - start
    assert elapsed < 1
    _report(12, f"Z3 x Z instance and pure-torus reduction hold ({elapsed:.2f}s < 1s)")
