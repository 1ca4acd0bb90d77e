"""Start-up: ``import nctori.cli`` loads only the modules that a well-formed
``classify``, ``classify-group`` or ``analyze`` request runs."""

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

_CHILD = """
import contextlib, io, json, sys
import nctori.cli

def loaded():
    return sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)

after_import = loaded()
replies = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nctori.cli.main(argv)
    replies.append([code, json.loads(out.getvalue())])
try:  # a non-int entry while fractions is not loaded: not a Fraction, so refused
    nctori.cli.Matrix([[0.5]])
    refused = False
except TypeError:
    refused = True
print(json.dumps({"after_import": after_import, "after_requests": loaded(), "replies": replies, "refused": refused}))
"""


def test_cli_import_and_requests_leave_the_deferred_modules_unloaded(tmp_path):
    matrix = tmp_path / "c5.txt"  # the companion matrix of Phi_5
    matrix.write_text("4\n0 0 0 -1\n1 0 0 -1\n0 1 0 -1\n0 0 1 -1\n")
    argvs = [
        ["classify", "7", "5", "--json"],
        ["classify-group", "4", "Z6xZ^1", "--json"],
        ["analyze", str(matrix), "--json"],
    ]
    # -S: no site module, so the modules loaded are the interpreter's and nctori's
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, json.dumps(DEFERRED), json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["after_import"] == [] and result["after_requests"] == [] and result["refused"]
    codes = [code for code, _ in result["replies"]]
    verdict, group_verdict, report = (reply for _, reply in result["replies"])
    assert codes == [0, 0, 0]
    assert verdict["simple_action"] and group_verdict["simple_action"]
    assert report["order"] == 5 and report["blocks"] == ["C5"]


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
