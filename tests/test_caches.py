"""The set of ``functools.lru_cache`` functions in ``nctori``: the ones that
README "Caches" names, each with its documented bound.  A cache added,
dropped or bounded differently fails here until README says so too."""

import importlib
import pkgutil

import nctori

# name -> maxsize, as README "Caches" lists them
DOCUMENTED = {
    "arith.cyclotomic": None,
    "arith.totient": None,
    "finite._trace_terms": None,
    "invariants.invariant_ranks": None,
    "classify._part": 1024,
    "wfun.w_order": 1024,
}


def test_caches_are_the_ones_readme_names():
    # collected as CI's "Caches" step collects them: every module imported,
    # each function with cache_info that is defined in that module
    modules = [importlib.import_module(f"nctori.{m.name}") for m in pkgutil.iter_modules(nctori.__path__)]
    caches = {
        f"{m.__name__[len('nctori.'):]}.{name}": fn.cache_info().maxsize
        for m in modules
        for name, fn in vars(m).items()
        if hasattr(fn, "cache_info") and fn.__module__ == m.__name__
    }
    assert caches == DOCUMENTED
