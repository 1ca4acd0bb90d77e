"""Exact classification of canonical finite-abelian-group actions on noncommutative tori."""

import importlib

__version__ = "0.1.0"

# each module of the package and the names it exports, looked up on every access, so that importing nctori
# loads no module of it; nctori.cli is left out and needs its own import
_EXPORTS = {
    "arith": ("cyclotomic", "factorize", "totient"),
    "classify": ("ActionReport", "Realization", "Verdict", "af_paper", "analyze_action", "classify_cyclic",
                 "classify_fg", "classify_group"),
    "exactlin": ("block_diag", "companion", "compound", "det", "kernel_basis", "order", "rank"),
    "finite": ("Matrix",),
    "invariants": ("Cyclotomic", "Identity", "NegCyclotomic", "free_outside_origin", "invariant_rank",
                   "invariant_rank_oracle", "invariant_ranks_molien", "realize", "s1"),
    "ktheory": ("GradedRank", "RankInfo", "at_least", "exact", "factor_k", "kunneth", "kunneth_torus", "torus_k"),
    "record": (),
    "theta": ("SymbolicSkew", "invariant_space", "is_invariant", "is_nondegenerate", "nondegenerate_invariant_exists",
              "pairing"),
    "wfun": ("AbelianGroup", "max_finite_order", "w_cost", "w_cyclic", "w_group", "w_order"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
