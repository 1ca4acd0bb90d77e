"""Reach: every function defined in ``src/nctori`` is called by a fixed sample
of command-line requests, or is listed in ``API_ONLY`` with the reason it is
kept.  A function that only the tests or the library API call is then a
choice that a diff shows, not code left behind.

The sample is the seed-1 requests of the three benchmark workloads, built by
``bench/gen.py`` (as ``report_caches`` in ``tests/probes.py`` builds them),
and the other subcommands, in text and JSON form, with their error paths.
It runs through ``cli.main`` in this process under ``sys.setprofile``, with
every ``functools.lru_cache`` that ``probes.caches`` finds cleared and the
command line's parser dropped first, so that a function that fills a cache
is entered at least once.
Functions are the named code objects of each module's source; lambdas and
comprehensions are parts of the function around them.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import nctori
from nctori import cli
from probes import caches

BENCH = Path(__file__).resolve().parents[1] / "bench"

# requests of each workload: 300 verdicts hold three large-d classify
# requests, and each analyze count is two cycles of the workload's strata
SAMPLE = {"verdicts": 300, "analyze_small": 34, "analyze_large": 42}

# functions that no request of the sample calls, each with the reason it stays
API_ONLY = {
    "__init__.__getattr__": "library API: resolves nctori.<name> lazily; the command line imports its modules",
    "__init__.__dir__": "library API: lists the lazy exports for dir(nctori)",
    "classify.af_paper": "library API: the AF condition on an order; a verdict's part reads it off the factorization it already has",
    "classify.classify_group": "library API: finite groups only; the command line sends every group to classify_fg",
    "exactlin.Matrix.__repr__": "library API: the printed form of a matrix",
    "exactlin._norm_entry": "Fraction and int-subclass entries, which matrix files never hold",
    "exactlin.order": "library API: the order of a matrix, the lcm over finite.cyclotomic_type",
    "exactlin.det": "library API: the determinant",
    "exactlin._det_int": "det on integer rows",
    "exactlin.compound": "library API: the m-th compound matrix, which invariant_rank_oracle is built on",
    "finite._int_chain_sums": "only a certificate whose entries pass 64-bit words: CI's P^300 B P^-300 probe",
    "invariants.realize": "library API: the integer matrix of a block spec; verdicts and reports never need it",
    "invariants._realize_block": "one block of realize",
    "invariants.free_outside_origin": "library API: freeness on a matrix; reports read it off the blocks",
    "invariants.invariant_rank": "library API: the invariant rank of one degree",
    "invariants.invariant_rank_oracle": "library API: one rank from the compound matrix, a check for the tests",
    "ktheory.at_least": "library API: a lower bound on a rank; the one that factor_k shares is built at import",
    "ktheory.GradedRank.__str__": "library API: the printed form of a K-rank pair",
    "ktheory.torus_k": "library API: the K-ranks of a torus; verdicts pad with kunneth_torus",
    "record.Record.__repr__": "library API: the printed form of a record",
    "record.Frozen.__init_subclass__": "runs when each Frozen subclass is defined, at import, before the sample",
    "record.Frozen.__setattr__": "refuses assignment to a frozen record, which no request attempts",
    "record.Frozen.__delattr__": "refuses deletion from a frozen record, which no request attempts",
    "theta.pairing": "library API: the paper's pairing <x, theta y> with symbolic coefficients",
    "theta._bilinear": "one rational term of pairing",
    "theta.is_invariant": "library API: whether a form is invariant under a matrix",
    "theta.nondegenerate_invariant_exists": "library API: invariant_space and nondegenerate_witness in one call",
    "wfun.AbelianGroup.__init__": "library API: checks a torsion passed directly; from_factors builds its prime powers itself",
    "wfun.w_cyclic": "library API: the cost of Z_n as a group, 2 for Z_2",
}


def _modules():
    return [nctori] + [importlib.import_module(f"nctori.{m.name}") for m in pkgutil.iter_modules(nctori.__path__)]


def _functions(code, prefix):
    """(file, first line, name) -> dotted name of each function nested in
    ``code``; class bodies and the module body lack CO_NEWLOCALS."""
    for const in code.co_consts:
        if inspect.iscode(const):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield (const.co_filename, const.co_firstlineno, const.co_name), name
            yield from _functions(const, name + ".")


def _defined() -> dict:
    defined = {}
    for module in _modules():
        short = "__init__" if module is nctori else module.__name__[len("nctori."):]
        source = Path(module.__file__).read_text(encoding="utf-8")
        defined.update(_functions(compile(source, module.__file__, "exec"), short + "."))
    return defined


def _requests(tmp: Path) -> list[list[str]]:
    from gen import WORKLOADS

    built = {}
    for workload, count in SAMPLE.items():
        (tmp / workload).mkdir()
        built[workload] = WORKLOADS[workload](1, count, str(tmp / workload))
    requests = [r["argv"] for generated in built.values() for r in generated]
    conjugate = next(r["argv"][1] for r in built["analyze_small"] if r["expect"]["form"] == "conj")
    c5, bad = tmp / "c5.txt", tmp / "bad.txt"
    c5.write_text("4\n0 0 0 -1\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n", encoding="utf-8")
    bad.write_text("2\n1 x\n0 1\n", encoding="utf-8")
    for form in ([], ["--json"]):
        requests += [argv + form for argv in (
            ["wfun", "54"], ["wgroup", "Z2xZ4xZ3"], ["cyclotomic", "12"],
            ["s1", "--blocks", "C9+negC3"], ["s1", "--blocks", "C3+I2"],
            ["classify", "6", "9"], ["classify", "1", "2"], ["classify", "3", "2"], ["classify", "7", "2"],
            ["classify-group", "5", "Z2xZ^2"], ["classify-group", "4", "Z2xZ2"],
            ["theta", str(c5)], ["theta", conjugate], ["analyze", str(c5)],
            ["table", "--dmax", "4", "--nmax", "6"], ["table", "--dmax", "3"],
            # error paths: domain errors exit 2, malformed input 1
            ["classify", "3", "1"], ["classify-group", "3", "Z^0"], ["classify-group", "3", "Z1"],
            ["table", "--dmax", "0"], ["analyze", str(bad)], ["analyze", str(tmp / "missing.txt")],
            ["s1", "--blocks", "C²"], ["wgroup", "Q2"], ["classify", "x", "3"], [],
        )]
    return requests


def _called(requests) -> tuple[set, set]:
    """(file, first line, name) of every function entered by ``requests``,
    and the exit codes they gave."""
    for fn in caches().values():
        fn.cache_clear()
    seen, codes = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in requests:
                codes.add(cli.main(argv))
        finally:
            sys.setprofile(previous)
    return seen, codes


def test_every_function_is_reached_or_listed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(cli, "_parser", None)  # built by the first request that needs argparse
    defined = _defined()
    called, codes = _called(_requests(tmp_path))
    assert codes == {0, 1, 2}
    uncalled = {name for key, name in defined.items() if key not in called}
    assert sorted(uncalled - API_ONLY.keys()) == [], "called by no request: delete it or list it in API_ONLY"
    assert sorted(API_ONLY.keys() - set(defined.values())) == [], "listed in API_ONLY but not defined"
    assert sorted(API_ONLY.keys() - uncalled) == [], "listed in API_ONLY but called by a request"
