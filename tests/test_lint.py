"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hqc128"


def test_src_has_no_assert_statements():
    # `python -O` strips asserts, so a runtime check must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
