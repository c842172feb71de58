"""Exactness guards must survive python -O, which strips assert statements."""

import ast
from pathlib import Path

import cyclodiff


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(cyclodiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
