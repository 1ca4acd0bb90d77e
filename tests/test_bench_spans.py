import ast
import importlib
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _boundary_names():
    """The (module, attribute) pairs of ``BOUNDARY`` in bench/spans.py, read
    from its source without running it."""
    tree = ast.parse(SPANS_PATH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARY" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py has no BOUNDARY list")


def test_every_boundary_name_resolves():
    # the traced benchmark run wraps each of these and stops at the first
    # name the program no longer has
    names = _boundary_names()
    missing = []
    for mod_name, attr in names:
        obj = importlib.import_module(f"nctori.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert len(names) > 30 and not missing
