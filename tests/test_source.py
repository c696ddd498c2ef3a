"""Static checks on the library source."""

import ast
from pathlib import Path

import fssp_holes

SRC = Path(fssp_holes.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so runtime checks must raise.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
