"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nctori"


def _absolute_imports():
    """(file name, imported module) for every absolute import in src/nctori."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                yield path.name, name


def test_sources_import_only_the_standard_library():
    for path_name, name in _absolute_imports():
        assert name.split(".")[0] in sys.stdlib_module_names, (path_name, name)


def test_sources_do_not_import_dataclasses():
    # records are __slots__ classes on nctori.record's bases: one idiom, not two
    for path_name, name in _absolute_imports():
        assert name.split(".")[0] != "dataclasses", (path_name, name)
