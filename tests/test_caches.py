"""The set of ``functools.lru_cache`` functions in ``nctori``: the ones that
README "Caches" names, each with its documented bound.  A cache added,
dropped or bounded differently fails here until README says so too."""

from probes import caches

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
    assert {name: fn.cache_info().maxsize for name, fn in caches().items()} == DOCUMENTED
