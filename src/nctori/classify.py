"""The classification engine for canonical actions on noncommutative tori.

Given a dimension d and a finite cyclic group, finite abelian group, or
finitely generated abelian group, decide whether the group embeds in
GL_d(Z) with the canonical block realization, whether a simple torus
carries the action, construct the realization (with sign absorption for
orders congruent to 2 mod 4), compute the crossed-product K-ranks through
the tensor decomposition, and evaluate both AF predicates: the closed-form
arithmetic condition on the order, and the first-principles check that the
computed K_1 rank vanishes.  The two can disagree (orders 50 and 54 are the
smallest cases); verdicts carry both answers plus a divergence flag rather
than hiding the discrepancy.
"""

from __future__ import annotations

import functools
from itertools import chain
from math import lcm

from .arith import factorize
from .exactlin import Matrix
from .finite import cyclotomic_type
from .invariants import (
    Block,
    BlockSpec,
    Cyclotomic,
    Identity,
    NegCyclotomic,
    ORACLE_MAX_DIM,
    block_label,
    invariant_ranks,
    invariant_ranks_molien,
    s1,
    spec_free,
    spec_nondegenerate,
    spec_order,
)
from .ktheory import GradedRank, RankInfo, at_least, exact, factor_k, kunneth_all, kunneth_torus
from .record import Record
from .wfun import AbelianGroup, w_cost, w_decomposition, w_order

W_TOO_BIG = "w_too_big"
GAP_ONE = "gap_one"
EXISTS = "exists"

_EXACT_ZERO = exact(0)  # the K_1 rank of an AF crossed product
# The K-ranks of the flip -I on a torus of any dimension: K_1 = s1 = 0, since
# Lambda^m(-I) = (-1)^m I fixes no vector of odd degree m.
_FLIP_K = GradedRank(at_least(1), _EXACT_ZERO)

# Largest d + free rank r the classifiers (and ``s1 --blocks``) accept: every
# rank they report is at most 2^(d + r), and 2^14281 has 4,300 digits, the most
# that Python's default limit lets ``str`` and ``json.dumps`` print.
MAX_RANK_DIM = 14_281


def check_rank_dim(d: int, free_rank: int = 0) -> None:
    """Raise ValueError unless 1 <= d and d + free_rank <= MAX_RANK_DIM."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d + free_rank > MAX_RANK_DIM:
        what = f"dimension plus free rank {d + free_rank}" if free_rank > 0 else f"dimension {d}"
        raise ValueError(f"{what} exceeds MAX_RANK_DIM = {MAX_RANK_DIM}")


def af_paper(n: int) -> bool:
    """The closed-form AF condition on the order n: n = 2m with m of the
    shape 3^j 5^i p^e (j <= 2, i <= 1, one prime p > 5, e >= 0), or
    n = 2^k 3^j 5^i with k != 1, j <= 2, i <= 1.

    >>> af_paper(6), af_paper(7), af_paper(8), af_paper(54)
    (True, False, True, False)
    """
    if n < 2:
        raise ValueError(f"af_paper expects n >= 2, got {n}")
    return _af_paper(factorize(n))


def _af_paper(factors: list[tuple[int, int]]) -> bool:
    """``af_paper`` on the (prime, exponent) pairs of the order."""
    fac = dict(factors)
    k, j, i = fac.get(2, 0), fac.get(3, 0), fac.get(5, 0)
    big = {p: e for p, e in fac.items() if p not in (2, 3, 5)}
    if not big and k != 1 and j <= 2 and i <= 1:
        return True
    return k == 1 and len(big) <= 1 and j <= 2 and i <= 1


class Realization(Record):
    """A concrete block realization: the block list and the matrix order.
    ``invariants.realize(blocks)`` builds the integer matrix (verdicts never
    need it)."""

    __slots__ = ("blocks", "order")

    def __init__(self, blocks: BlockSpec, order: int):
        self.blocks, self.order = blocks, order


class Verdict(Record):
    """Classification outcome for one (dimension, group) query.  The four
    flags follow from the rest: the group fits unless W > d, a simple action
    (hence AT) exists exactly when the reason is ``exists``, and the
    divergence is the two AF predicates disagreeing."""

    __slots__ = ("d", "input_label", "realizable_in_gl_d", "simple_action_exists", "reason", "w", "realization", "k",
                 "is_at", "is_af_computed", "is_af_paper_predicate", "divergence_flag")

    def __init__(self, d: int, input_label: str, w: int, reason: str, realization: Realization | None = None,
                 k: GradedRank | None = None, is_af_computed: bool = False, is_af_paper_predicate: bool = False):
        self.d, self.input_label, self.realizable_in_gl_d = d, input_label, reason != W_TOO_BIG
        self.simple_action_exists, self.reason, self.w = reason == EXISTS, reason, w
        self.realization, self.k, self.is_at = realization, k, reason == EXISTS
        self.is_af_computed, self.is_af_paper_predicate = is_af_computed, is_af_paper_predicate
        self.divergence_flag = is_af_computed != is_af_paper_predicate


def _best_blocks(factors: list[tuple[int, int]]) -> tuple[Block, ...]:
    """Cyclotomic blocks realizing Z_n in dimension w_order(n), n >= 3, from
    the (prime, exponent) pairs of n: one Cyclotomic(q) per prime power q.

    For n = 2m with odd m > 1 the factor 2 costs no dimension: it is absorbed
    by negating one odd block.  The choice minimizes the summed standalone
    odd-degree invariant ranks; the choices share every other block, so that
    is the q of least s1(negC q) - s1(C q), ties going to the largest q.
    s1(negC q) = 0 for odd q: every eigenvalue of an odd exterior power of
    -C_q is -1 times a q-th root of unity, which is never 1.  So the choice
    is the q of largest s1(C q)."""
    if factors[0] != (2, 1):  # the primes ascend: n is not 2 mod 4
        return tuple(Cyclotomic(p**e) for p, e in factors)
    odd = [p**e for p, e in factors[1:]]
    neg = max(odd, key=lambda q: (s1((Cyclotomic(q),)), q))
    return tuple(NegCyclotomic(q) if q == neg else Cyclotomic(q) for q in odd)


@functools.lru_cache(maxsize=1024)
def _part(n_l: int) -> tuple[tuple[Block, ...], GradedRank, bool]:
    """The blocks of one cyclic part of order n_l, the Kunneth product of
    their factors' K-ranks and ``af_paper(n_l)``.  None of them depends on
    d, so each part is resolved once; a run of verdicts meets about 400
    distinct parts.  n_l is factored once, for both the blocks and the AF
    flag.  Z_2 spends a full -I_2, since a lone sign block cannot carry it;
    both sign blocks carry the same Z_2, so the part is one factor, the flip
    on a 2-torus, not the product of two."""
    factors = factorize(n_l)
    if n_l == 2:
        return (Cyclotomic(2), Cyclotomic(2)), _FLIP_K, _af_paper(factors)
    blocks = _best_blocks(factors)
    return blocks, kunneth_all(map(factor_k, blocks)), _af_paper(factors)


def _classify(d: int, label: str, w: int, parts: tuple[int, ...], free_rank: int) -> Verdict:
    """The one classification path: the torsion is realized part by part
    (cyclic orders ``parts`` costing ``w`` dimensions in total) and padded
    by an identity block, while the free part acts by adding dimensions, so
    the crossed product is modeled as the torsion factors tensored with a
    torus of dimension d + r - W.  Existence holds whenever the torsion
    fits and either the gap differs from one or the free rank is positive
    (the gap-one case lands on a form that is zero in one coordinate, with
    the free part restoring simplicity one dimension up)."""
    if w > d:
        return Verdict(d, label, w, W_TOO_BIG)
    gap = d - w
    # the blocks, Kunneth factor and AF flag of each part (none for a torsion-free group)
    part_blocks, factors, papers = zip(*map(_part, parts)) if parts else ((), (), ())
    blocks = tuple(chain.from_iterable(part_blocks))
    realization = Realization(blocks + ((Identity(gap),) if gap else ()), lcm(*parts, 1))
    if gap == 1 and not free_rank:
        return Verdict(d, label, w, GAP_ONE, realization)
    k = kunneth_torus(kunneth_all(factors), gap + free_rank)
    af_computed = not free_rank and k.k1 == _EXACT_ZERO
    paper_flag = not free_rank and gap == 0 and all(papers)
    return Verdict(d, label, w, EXISTS, realization, k, af_computed, paper_flag)


def classify_cyclic(d: int, n: int) -> Verdict:
    """Classify the order-n cyclic action on a simple d-torus.

    Outcomes: the order does not fit in GL_d(Z) (w_order(n) > d); it fits
    but d - w_order(n) = 1, where every invariant form is degenerate; or a
    simple action exists, built from cyclotomic companion blocks padded by
    an identity block, with the K-ranks of the crossed product.
    """
    check_rank_dim(d)
    if n < 2:
        raise ValueError(f"classify_cyclic expects an order n >= 2, got {n}")
    label, w = f"Z{n}", w_order(n)
    if n == 2:
        # The full flip -I_d: every coordinate is negated, no residual torus
        # factor acts trivially, and the whole action is free of even order.
        # Its gap is measured against w_order(2) = 0, so it is never zero and
        # the closed-form predicate never holds, in any dimension.
        flip = Realization((Cyclotomic(2),) * d, 2)
        if d == 1:
            return Verdict(d, label, w, GAP_ONE, flip)
        return Verdict(d, label, w, EXISTS, flip, _FLIP_K, True)
    return _classify(d, label, w, (n,), 0)


def classify_group(d: int, g: AbelianGroup) -> Verdict:
    """Classify the action of a finite abelian group, realized part by part
    along a cost-minimizing cyclic decomposition of its torsion."""
    check_rank_dim(d)
    if g.free_rank:
        raise ValueError("classify_group expects free rank 0; use classify_fg")
    if g.is_trivial:
        raise ValueError("classify_group expects a nontrivial group")
    return classify_fg(d, g)


def classify_fg(d: int, g: AbelianGroup) -> Verdict:
    """Classify the action of a finitely generated abelian group: the
    torsion along a cost-minimizing cyclic decomposition, the free rank as
    extra torus dimensions."""
    check_rank_dim(d, g.free_rank)
    # W first, from its closed form: a group that does not fit is refused
    # before any cyclic decomposition is built.
    w = w_cost(g)
    return _classify(d, str(g), w, w_decomposition(g).parts if w <= d else (), g.free_rank)


# -- analysis of arbitrary user matrices ------------------------------------


def recognize_blocks(a: Matrix) -> BlockSpec | None:
    """The cyclotomic type of ``a`` as blocks: Cyclotomic(n) for each factor
    Phi_n with n >= 2 in ascending order, then one Identity for the Phi_1
    factors; None when ``a`` has infinite order.  This is a rational
    invariant, not an integral normal form: the swap [[0, 1], [1, 0]] gives
    C2+I1 though it is not GL_2(Z)-conjugate to diag(-1, 1)."""
    ns = cyclotomic_type(a)
    if ns is None:
        return None
    fixed = ns.count(1)
    return tuple(Cyclotomic(n) for n in ns if n > 1) + ((Identity(fixed),) if fixed else ())


class ActionReport(Record):
    """What ``analyze_action`` can determine about one finite-order matrix;
    every field but ``oracle_ranks`` is read off its cyclotomic type."""

    __slots__ = ("dim", "order", "free", "blocks", "oracle_ranks", "spectrum_ranks", "s1", "s1_note", "k1",
                 "invariant_space_dim", "theta_exists")

    def __init__(self, dim: int, order: int, blocks: BlockSpec, oracle_ranks: tuple[int, ...] | None):
        self.dim, self.order, self.free, self.blocks = dim, order, spec_free(blocks), blocks
        self.oracle_ranks, self.spectrum_ranks = oracle_ranks, invariant_ranks(blocks)
        self.s1 = sum(self.spectrum_ranks[1::2]) if self.free else None
        self.s1_note = None if self.free else "s1 unavailable: action is not free outside the origin"
        self.k1 = None if self.s1 is None else exact(self.s1)
        self.invariant_space_dim = self.spectrum_ranks[2] if dim > 1 else 0
        self.theta_exists = spec_nondegenerate(blocks)


def analyze_action(a: Matrix) -> ActionReport:
    """Full report on the canonical action of a finite-order integer matrix.

    The order, freeness, blocks, per-degree invariant ranks (spectrum
    method) and invariant skew forms follow from the cyclotomic type
    (``recognize_blocks``), so none of them depends on the basis: the forms
    span the degree-2 rank, and ``spec_nondegenerate`` tells whether a
    nondegenerate Theta exists.  Up to dimension 12 ``oracle_ranks`` reports
    the same ranks by Molien's formula on the matrix itself
    (``invariant_ranks_molien``, from the traces of its powers), an
    independent check that shares no code with the spectrum route: an
    ArithmeticError names both when they differ.  The K_1 rank, the odd sum
    of the ranks, is given when the freeness hypothesis holds.
    """
    if not a.is_square or a.nrows == 0:
        raise ValueError("analyze_action requires a nonempty square matrix")
    d = a.nrows
    blocks = recognize_blocks(a)
    if blocks is None:
        raise ValueError(f"matrix has no finite order at dimension {d}")
    order = spec_order(blocks)
    report = ActionReport(d, order, blocks, invariant_ranks_molien(a, order) if d <= ORACLE_MAX_DIM else None)
    if report.oracle_ranks not in (None, report.spectrum_ranks):
        raise ArithmeticError(f"Molien ranks {report.oracle_ranks} differ from spectrum ranks {report.spectrum_ranks}")
    return report


# -- JSON rendering -----------------------------------------------------------


def rankinfo_json(r: RankInfo | None):
    return None if r is None else {"kind": r.kind, "value": r.value}


def verdict_json(v: Verdict) -> dict:
    return {
        "d": v.d,
        "input": v.input_label,
        "realizable": v.realizable_in_gl_d,
        "simple_action": v.simple_action_exists,
        "reason": v.reason,
        "order": v.realization.order if v.realization else 0,
        "blocks": [block_label(b) for b in v.realization.blocks] if v.realization else [],
        "k0": rankinfo_json(v.k.k0 if v.k else None),
        "k1": rankinfo_json(v.k.k1 if v.k else None),
        "AT": v.is_at,
        "AF_computed": v.is_af_computed,
        "AF_paper": v.is_af_paper_predicate,
        "divergence": v.divergence_flag,
    }


def report_json(r: ActionReport) -> dict:
    return {
        "d": r.dim,
        "order": r.order,
        "free_outside_origin": r.free,
        "blocks": [block_label(b) for b in r.blocks],
        "oracle_ranks": list(r.oracle_ranks) if r.oracle_ranks is not None else None,
        "spectrum_ranks": list(r.spectrum_ranks),
        "s1": r.s1,
        "s1_note": r.s1_note,
        "k1": rankinfo_json(r.k1),
        "invariant_space_dim": r.invariant_space_dim,
        "nondegenerate_theta_exists": r.theta_exists,
    }
