"""Source-level rules for the package."""

import ast
from pathlib import Path

import spechtvar


def test_package_uses_no_assert_statements():
    # invariants must hold under ``python -O``, which strips assert
    found = []
    for path in sorted(Path(spechtvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)
