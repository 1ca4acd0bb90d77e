"""Start-up: ``import nctori.cli`` loads only the modules that a well-formed
verdict request runs, and no matrix module.

The child of ``test_cli_import_and_requests_leave_the_deferred_modules_unloaded``
runs phases of requests and reads ``sys.modules`` after each:

- ``import nctori.cli`` loads neither ``DEFERRED`` nor ``MATRIX``;
- the verdict-side subcommands that take positionals only (``classify``,
  ``classify-group``, ``wfun``, ``wgroup``, ``cyclotomic``) load none of them;
- ``analyze`` loads ``nctori.finite`` alone: the matrix, its cyclotomic type
  and the Molien check, with no ``exactlin`` and no ``theta``;
- a non-int matrix entry is refused by ``nctori.finite.Matrix`` without
  loading ``fractions``.

A second child runs the verdict-side subcommands that take options (``table``,
``s1 --blocks``): they load ``argparse`` and no matrix module.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import nctori
from nctori import theta

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# loaded only by help, errors and options (argparse), the theta subcommand,
# and non-integer matrix entries (fractions); dataclasses and inspect by nothing
DEFERRED = ("argparse", "dataclasses", "inspect", "fractions", "nctori.theta")

# the names the package exported before theta was resolved lazily, by home module
EXPORTS = {
    "arith": ("cyclotomic", "factorize", "totient"),
    "classify": (
        "ActionReport", "Realization", "Verdict", "af_paper", "analyze_action", "classify_cyclic", "classify_fg",
        "classify_group",
    ),
    "exactlin": ("Matrix", "block_diag", "companion", "compound", "det", "kernel_basis", "order", "rank"),
    "invariants": (
        "Cyclotomic", "Identity", "NegCyclotomic", "free_outside_origin", "invariant_rank", "invariant_rank_oracle",
        "invariant_ranks_molien", "realize", "s1",
    ),
    "ktheory": ("GradedRank", "RankInfo", "at_least", "exact", "factor_k", "kunneth", "torus_k"),
    "theta": (
        "SymbolicSkew", "invariant_space", "is_invariant", "is_nondegenerate", "nondegenerate_invariant_exists",
        "pairing",
    ),
    "wfun": ("AbelianGroup", "max_finite_order", "w_cyclic", "w_group", "w_order"),
}

# the matrix modules: finite (Matrix and the finite-order routes), loaded by analyze and theta, and
# exactlin (exact linear algebra over it), loaded by theta alone
MATRIX = ("nctori.exactlin", "nctori.finite")

_CHILD = """
import contextlib, io, json, sys
import nctori.cli

watched, phases = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def loaded():
    return sorted(m for m in watched if m in sys.modules)

result = {"import": loaded(), "replies": []}
for phase, argvs in phases:
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nctori.cli.main(argv)
        result["replies"].append([code, json.loads(out.getvalue())])
    result[phase] = loaded()
if "nctori.finite" in sys.modules:
    try:  # a non-int entry while fractions is not loaded: not a Fraction, so refused
        nctori.finite.Matrix([[0.5]])
        result["refused"] = False
    except TypeError:
        result["refused"] = True
    result["refusal"] = loaded()
print(json.dumps(result))
"""


def _child(phases) -> dict:
    """What the child prints after ``phases``, a list of (name, argv lists)."""
    # -S: no site module, so the modules loaded are the interpreter's and nctori's
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, json.dumps(DEFERRED + MATRIX), json.dumps(phases)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_and_requests_leave_the_deferred_modules_unloaded(tmp_path):
    matrix = tmp_path / "c5.txt"  # the companion matrix of Phi_5
    matrix.write_text("4\n0 0 0 -1\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n")
    verdicts = [
        ["classify", "7", "5", "--json"],
        ["classify-group", "4", "Z6xZ^1", "--json"],
        ["wfun", "9", "--json"],
        ["wgroup", "Z6xZ4", "--json"],
        ["cyclotomic", "9", "--json"],
    ]
    result = _child([["verdicts", verdicts], ["analyze", [["analyze", str(matrix), "--json"]]]])
    assert result["import"] == [] and result["verdicts"] == []
    assert result["analyze"] == ["nctori.finite"]
    assert result["refused"] and result["refusal"] == ["nctori.finite"]
    codes = [code for code, _ in result["replies"]]
    verdict, group_verdict, w, w_group, coefficients, report = (reply for _, reply in result["replies"])
    assert codes == [0] * 6
    assert verdict["simple_action"] and group_verdict["simple_action"]
    assert w["w"] == 6 and w_group["w"] == 4 and coefficients["coefficients"] == [1, 0, 0, 1, 0, 0, 1]
    assert report["order"] == 5 and report["blocks"] == ["C5"]

    options = [["table", "--dmax", "3", "--json"], ["s1", "--blocks", "C9", "--json"]]
    result = _child([["options", options]])
    assert result["import"] == [] and result["options"] == ["argparse"] and "refused" not in result
    (table_code, table), (s1_code, s1) = result["replies"]
    assert table_code == s1_code == 0
    assert len(table) == 15 and [row["d"] for row in table[::5]] == [1, 2, 3]
    assert s1["invariant_ranks"] == [1, 0, 3, 0, 3, 0, 1]


_PACKAGE_CHILD = """
import json, sys
import nctori

loaded = sorted(m for m in sys.modules if m.startswith("nctori."))
resolved = [getattr(nctori, m) is sys.modules[f"nctori.{m}"] for m in ("finite", "record", "theta")]
print(json.dumps({"loaded": loaded, "resolved": resolved, "cli": hasattr(nctori, "cli")}))
"""


def test_package_import_loads_no_module_of_the_package():
    # and a module of the package resolves by name without an import, but for cli
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PACKAGE_CHILD],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded": [], "resolved": [True, True, True], "cli": False}


def test_star_import_and_dir_give_every_export():
    names = {name for names in EXPORTS.values() for name in names}
    assert len(names) == 46
    namespace = {}
    exec("from nctori import *", namespace)
    assert names <= namespace.keys()
    assert names <= set(dir(nctori)) and set(EXPORTS) <= set(dir(nctori))


def test_parent_exports_resolve_to_their_home_objects():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"nctori.{module}")
        assert getattr(nctori, module) is home
        for name in names:
            assert getattr(nctori, name) is getattr(home, name), name
    assert not hasattr(nctori, "rotation_spectrum")
    assert not hasattr(nctori, "no_such_name")


def test_theta_names_are_looked_up_on_every_access(monkeypatch):
    def replacement(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(theta, "invariant_space", replacement)
    assert nctori.invariant_space is replacement
    monkeypatch.undo()
    assert nctori.invariant_space is theta.invariant_space
    # and so is every other exported name
    from nctori import classify

    monkeypatch.setattr(classify, "classify_cyclic", replacement)
    assert nctori.classify_cyclic is replacement
    monkeypatch.undo()
    assert nctori.classify_cyclic is classify.classify_cyclic
    assert "classify_cyclic" not in vars(nctori)
