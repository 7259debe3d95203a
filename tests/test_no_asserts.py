"""Checks that guard a verdict must still run under `python -O`, which
strips `assert` statements, so the package source holds none."""

import ast
from pathlib import Path

import jordannil

SRC = Path(jordannil.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
