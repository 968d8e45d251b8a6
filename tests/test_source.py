"""Source-level rules for the library package."""

import ast
from pathlib import Path

import charval

PACKAGE = Path(charval.__file__).parent


def test_library_has_no_assert_statements():
    """Invariants raise typed exceptions; assert vanishes under python -O."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
