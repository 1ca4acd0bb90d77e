"""Pins of the classification engine's output.

The equivalence test checks that the three public classifiers agree where
their domains overlap.  The golden test hashes the JSON of three verdict grids
and of the analysis report of every nonempty block spec through dimension 6;
the verdict digests were taken before the three classifiers were folded into
one engine, so any change to a verdict or report shows up here.  A sixth
digest covers reports on seeded conjugates of dimension 7 to 12, where
``oracle_ranks`` comes from Molien's formula on the matrix; it was taken
before that route's power-and-trace engine was rewritten.  The reports
are hashed twice: in full, and without the "blocks" key.  The second digest
predates reading the blocks off the characteristic polynomial and is
unchanged by it; the full digest was re-taken after it, when "negC<odd m>"
became "C<2m>" and the blocks came out in canonical order, identities last.
"""

import hashlib
import json
import random
from itertools import product

from nctori.arith import factorize
from nctori.classify import (
    analyze_action,
    classify_cyclic,
    classify_fg,
    classify_group,
    report_json,
    verdict_json,
)
from nctori.invariants import block_dim, realize
from nctori.wfun import AbelianGroup, w_cost, w_group
from oracles import block_menu, enumerate_specs

DIMS = range(1, 13)


def _partitions(e: int, cap: int | None = None):
    """Partitions of e into positive parts, largest first."""
    if e == 0:
        yield ()
        return
    for first in range(min(e, cap or e), 0, -1):
        for rest in _partitions(e - first, first):
            yield (first,) + rest


def abelian_groups(max_order: int) -> list[AbelianGroup]:
    """Every nontrivial finite abelian group of order at most max_order, once."""
    groups = []
    for n in range(2, max_order + 1):
        fac = factorize(n)
        for shape in product(*(list(_partitions(e)) for _, e in fac)):
            torsion = tuple(p**k for (p, _), part in zip(fac, shape) for k in part)
            groups.append(AbelianGroup(torsion))
    return groups


def test_classifiers_agree_where_domains_overlap():
    for d in DIMS:
        for n in range(3, 201):
            cyc = classify_cyclic(d, n)
            grp = classify_group(d, AbelianGroup.from_factors([n]))
            a, b = verdict_json(cyc), verdict_json(grp)
            del a["input"], b["input"]
            assert (a, cyc.w) == (b, grp.w), (d, n)
    for g in abelian_groups(64):
        for d in DIMS:
            grp, fg = classify_group(d, g), classify_fg(d, g)
            assert (verdict_json(grp), grp.w) == (verdict_json(fg), fg.w), (d, str(g))
        # the verdicts read W alone; w_group gives it with its decomposition
        w = w_group(g)[0]
        assert all(w_cost(AbelianGroup(g.torsion, r)) == w for r in (0, 1, 2)), str(g)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


GOLDEN = {
    "classify_cyclic": "6b7e015b855fa3ab2260519ad5eb7c932c444ea1144b1cf065c6c9f7ca3a28a9",
    "classify_group": "e964e179047a7dc2cf175dad9d2d498a3c792f0d1aafe2b253f0c47e920db834",
    "classify_fg": "591d6bee05d30a16eb537cd7e40300a1e19a7e507f156f6efcb9b2af9b0c24a6",
    "analyze_action": "12b00eb904756d302a657c875e63057a59e8f00aba53ba15e31d7d2334159ae7",
    "analyze_action_without_blocks": "1bdb700a7248c2c17c72e0611c321a7318356ae6c1b8a044bae16fb805580852",
}
GOLDEN_CONJUGATES_7_12 = "d5692a630d77400f9cf88a441cc8501dd887ae69c6c45cd3c5397b0ba58d29b8"


def test_golden_digests():
    groups = abelian_groups(64)
    assert len({g.torsion for g in groups}) == 116
    fg_groups = [AbelianGroup()] + groups
    reports = [report_json(analyze_action(realize(s))) for s in enumerate_specs(6) if s]
    got = {
        "classify_cyclic": _digest(
            [verdict_json(classify_cyclic(d, n)) for d in DIMS for n in range(2, 201)]
        ),
        "classify_group": _digest([verdict_json(classify_group(d, g)) for g in groups for d in DIMS]),
        "classify_fg": _digest(
            [
                verdict_json(classify_fg(d, AbelianGroup(g.torsion, r)))
                for g in fg_groups
                for r in (1, 2)
                for d in DIMS
            ]
        ),
        "analyze_action": _digest(reports),
        "analyze_action_without_blocks": _digest(
            [{key: value for key, value in r.items() if key != "blocks"} for r in reports]
        ),
    }
    assert got == GOLDEN


def test_golden_digest_of_conjugates_through_the_matrix_molien_route(unimodular_pair):
    # eight random block specs per dimension 7..12, each conjugated by a
    # random P in GL_d(Z): every report carries oracle_ranks
    rng = random.Random(1505)
    menu = block_menu()
    reports = []
    for d in range(7, 13):
        for _ in range(8):
            spec, rest = [], d
            while rest:
                b = rng.choice([b for b in menu if block_dim(b) <= rest])
                spec.append(b)
                rest -= block_dim(b)
            p, q = unimodular_pair(rng, d, 3 * d)
            report = report_json(analyze_action(p @ realize(spec) @ q))
            assert report["oracle_ranks"] == report["spectrum_ranks"], spec
            reports.append(report)
    assert _digest(reports) == GOLDEN_CONJUGATES_7_12
