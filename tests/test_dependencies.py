"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``; this test holds the
source to that.  It parses every module under ``src/repro`` and checks
that each absolute import names a standard-library module or
``repro`` itself, including imports inside functions, so an optional
third-party import cannot hide behind a lazy code path.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def imported_top_levels(path):
    """Yield ``(line, top-level module)`` for each absolute import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fp:
        project = tomllib.load(fp)["project"]
    assert project["dependencies"] == []


def test_source_imports_only_stdlib_and_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in files
        for line, module in imported_top_levels(path)
        if module not in allowed
    ]
    assert not foreign, "third-party imports:\n" + "\n".join(foreign)
