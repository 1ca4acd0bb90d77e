"""Exact classification of canonical finite-abelian-group actions on noncommutative tori."""

from .arith import cyclotomic, factorize, totient
from .classify import (
    ActionReport,
    Realization,
    Verdict,
    af_paper,
    analyze_action,
    classify_cyclic,
    classify_fg,
    classify_group,
)
from .exactlin import Matrix, block_diag, companion, compound, det, kernel_basis, order, rank
from .invariants import (
    Cyclotomic,
    Identity,
    NegCyclotomic,
    free_outside_origin,
    invariant_rank,
    invariant_rank_oracle,
    invariant_ranks_molien,
    realize,
    rotation_spectrum,
    s1,
)
from .ktheory import GradedRank, RankInfo, at_least, exact, factor_k, kunneth, torus_k
from .theta import (
    SymbolicSkew,
    invariant_space,
    is_invariant,
    is_nondegenerate,
    nondegenerate_invariant_exists,
    pairing,
)
from .wfun import AbelianGroup, max_finite_order, w_cyclic, w_group, w_order

__version__ = "0.1.0"
