"""Exact classification of canonical finite-abelian-group actions on noncommutative tori."""

import importlib

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
    s1,
)
from .ktheory import GradedRank, RankInfo, at_least, exact, factor_k, kunneth, torus_k
from .wfun import AbelianGroup, max_finite_order, w_cyclic, w_group, w_order

__version__ = "0.1.0"

_THETA_NAMES = {"SymbolicSkew", "invariant_space", "is_invariant", "is_nondegenerate", "nondegenerate_invariant_exists",
                "pairing"}


def __getattr__(name):
    # theta and its names, looked up in nctori.theta on each access: importing nctori does not load theta
    if name == "theta" or name in _THETA_NAMES:
        theta = importlib.import_module(".theta", __name__)
        return theta if name == "theta" else getattr(theta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
