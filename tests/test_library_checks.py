"""Library checks raise typed errors; none may rely on ``assert``, which
``python -O`` strips.  Transforms and inner functions are held in pole or
zero form only; monomial coefficients misrepresent high-degree roots, so the
library forms none.  The library needs numpy alone; scipy is a test-only
dependency."""

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


MONOMIAL = {"roots", "poly", "polyval", "polynomial"}


def test_no_monomial_coefficients_in_library():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                bad = any(a.name.startswith("numpy.polynomial") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").startswith("numpy.polynomial") or (
                    node.module == "numpy"
                    and any(a.name in MONOMIAL for a in node.names))
            elif isinstance(node, ast.Call):
                f = node.func
                bad = (isinstance(f, ast.Attribute) and f.attr in MONOMIAL
                       and isinstance(f.value, ast.Name)
                       and f.value.id in ("np", "numpy"))
            else:
                bad = False
            if bad:
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_no_scipy_in_library():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []
