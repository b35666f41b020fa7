"""Library checks raise typed errors; none may rely on ``assert``, which
``python -O`` strips."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clarklab"


def test_no_assert_in_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []
