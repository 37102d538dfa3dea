"""Rules on the package source itself."""

import ast
from pathlib import Path

import vkg


def test_no_assert_statements():
    """Correctness checks in the package must survive ``python -O``."""
    sources = sorted(Path(vkg.__file__).parent.glob("*.py"))
    assert any(p.name == "linalg.py" for p in sources)
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
