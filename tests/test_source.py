"""Checks on the package source itself."""
import ast
from pathlib import Path

import xoppak

PACKAGE = Path(xoppak.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
