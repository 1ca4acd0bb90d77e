import doctest

import nctori.arith
import nctori.classify
import nctori.cli
import nctori.exactlin
import nctori.finite
import nctori.invariants
import nctori.ktheory
import nctori.theta
import nctori.wfun


def test_module_doctests():
    modules = (
        nctori.arith,
        nctori.exactlin,
        nctori.finite,
        nctori.wfun,
        nctori.invariants,
        nctori.ktheory,
        nctori.theta,
        nctori.classify,
        nctori.cli,
    )
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
