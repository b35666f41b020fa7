"""Library checks raise typed errors and the experiment scripts exit non-zero;
none may rely on ``assert``, which ``python -O`` strips.  Transforms and
inner functions are held in pole or zero form only; monomial coefficients
misrepresent high-degree roots, so the library forms none.  The library
needs numpy alone; scipy is a test-only dependency.  The benchmark under
``perfbench/`` traces library functions by name, so every name it traces
must still resolve, and each check entry yields as many records as it counts
for that entry.  No scenario check solves the same level set, or builds the
same T_alpha, twice; each check over a parameter grid solves an item's grid
in one call, and a model space solves one level set, of theta itself.  Every
bracketed solve runs one safeguarded Newton.  The curve average integrates
between its jumps, and the coupling average over the whole line between its
own.  Every name the package exports has a caller or a stated role, every
field of every bundled check entry is read by its handler, and every
tolerance class is read by some bundled check."""

import ast
import dataclasses
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from clarklab import herglotz, modelspace, rankn, rankone, scenarios
from clarklab.herglotz import BlaschkeProduct
from clarklab.modelspace import build_model_space

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clarklab"


def test_no_assert_in_library():
    # the experiment scripts check their results too, and must not print a
    # verdict under ``python -O`` that they never checked
    modules = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(ROOT)}:{node.lineno}"
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


def _traced_names(monkeypatch):
    # Read perfbench's trace list without writing bytecode into perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        return importlib.import_module("spans").traced_names()
    finally:
        sys.modules.pop("spans", None)


def test_benchmark_names_resolve(monkeypatch):
    names = _traced_names(monkeypatch)
    assert names
    missing = []
    for name in names:
        obj = importlib.import_module("clarklab")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
    # perfbench counts model-space nodes through ModelSpace.grid
    ms = build_model_space(BlaschkeProduct((0j, 0.5 + 0j)))
    assert ms.grid.size == 4


def test_private_functions_are_referenced():
    # A module-level private helper that nothing in the library refers to,
    # outside its own body, is dead: its route went and it stayed behind.
    trees = [(path, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.rglob("*.py"))]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    referenced = set()
    for _, tree in trees:
        for top in tree.body:
            own = top.name if isinstance(top, defs) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    unreferenced = [f"{path.relative_to(PACKAGE)}:{top.name}"
                    for path, tree in trees for top in tree.body
                    if isinstance(top, defs) and top.name.startswith("_")
                    and not top.name.startswith("__")
                    and top.name not in referenced]
    assert unreferenced == []


# Exports with no caller in the library or the scripts, and the role that
# keeps each of them public.
ROLES = {
    "total_mass": "the total mass of a measure, a user-facing summary",
    "measure_to_json": "writes a measure as JSON text, for saving results",
    "measure_from_json": "reads the text that measure_to_json writes",
}


def _referenced_names(paths):
    # Names and attributes each module refers to outside the top-level
    # definition of the same name.
    names = set()
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_public_names_are_referenced(monkeypatch):
    # The public twin of test_private_functions_are_referenced: a name the
    # package exports has a caller in the library (outside its own
    # definition and __init__.py) or in scripts/, is traced by perfbench,
    # or has a stated role in ROLES.  Anything else is dead public API.
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported
    used = _referenced_names(p for p in sorted(PACKAGE.rglob("*.py"))
                             if p.name != "__init__.py")
    used |= _referenced_names(sorted((ROOT / "scripts").glob("*.py")))
    used |= {name.split(".")[1] for name in _traced_names(monkeypatch)}
    assert sorted(exported - used - set(ROLES)) == []
    assert sorted(set(ROLES) - exported) == []
    assert sorted(set(ROLES) & used) == []


def test_no_unused_imports_in_library():
    # Every name a library module imports is used in that module; a route
    # that moved elsewhere must not leave its imports behind.  __future__
    # imports and the package's re-exports in __init__.py are exempt.
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(PACKAGE)}:{line}:{name}"
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []


def test_no_check_handler_repeats_a_solve(monkeypatch):
    # Every Clark solve goes through herglotz.level_set_batch, and the
    # model-space suite builds T_alpha through t_alpha_matrix.  A call is
    # keyed by the identity of its theta or model space and the bytes of
    # alpha; the keys are reset at the start of each check handler, and the
    # keyed objects are held so that no id is reused while they count.
    seen, repeats, current = {}, [], [None]

    def watch(name, *modules):
        original = getattr(modules[0], name)

        def watched(obj, alpha, *args, **kwargs):
            key = (name, id(obj), np.asarray(alpha, dtype=complex).tobytes())
            if key in seen:
                repeats.append((current[0], name))
            seen[key] = obj
            return original(obj, alpha, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, watched)

    watch("level_set_batch", herglotz)
    watch("t_alpha_matrix", modelspace, scenarios)
    for check, handler in list(scenarios.CHECKS.items()):
        def fresh(*args, _check=check, _handler=handler):
            seen.clear()
            current[0] = _check
            return _handler(*args)

        monkeypatch.setitem(scenarios.CHECKS, check, fresh)
    paths = sorted((PACKAGE / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        assert scenarios.run_scenario(path, workers=1).all_passed
    assert repeats == []


def test_each_check_solves_its_grid_in_one_call(monkeypatch):
    # Per item, clark_correspondence solves all its alphas in one level
    # set call and modelspace_suite in one besides build_model_space's;
    # secular_oracle solves all its couplings in one secular solve, and
    # two_parameter_oracle its (alpha, beta) grid in one knu_alpha_beta.
    per_item = {("clark_correspondence", "level_set_batch"): 1,
                ("modelspace_suite", "level_set_batch"): 2,
                ("secular_oracle", "_secular_solve"): 1,
                ("two_parameter_oracle", "knu_alpha_beta"): 1}
    field = {"clark_correspondence": "models", "modelspace_suite": "degrees",
             "secular_oracle": "models", "two_parameter_oracle": "families"}
    calls, items, current = Counter(), Counter(), [None]

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[current[0], name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(herglotz, "level_set_batch")
    count(herglotz, "_secular_solve")
    count(scenarios, "knu_alpha_beta")
    for check, handler in list(scenarios.CHECKS.items()):
        def tagged(seed, idx, spec, tol, _check=check, _handler=handler):
            current[0] = _check
            if _check in field:
                items[_check] += len(spec[field[_check]])
            return _handler(seed, idx, spec, tol)

        monkeypatch.setitem(scenarios.CHECKS, check, tagged)
    for path in sorted((PACKAGE / "scenarios").glob("*.json")):
        assert scenarios.run_scenario(path, workers=1).all_passed
    assert all(items[check] for check in field)
    assert {key: calls[key] for key in per_item} == \
        {key: n * items[key[0]] for key, n in per_item.items()}


def test_bracketed_solves_share_one_newton(monkeypatch):
    # Over the bundled scenarios, every secular solve and every endpoint
    # crossing solve runs its roots through one _safeguarded_newton call.
    newtons, solves = [0], Counter()
    newton = herglotz._safeguarded_newton

    def counted_newton(*args):
        newtons[0] += 1
        return newton(*args)

    def one_newton_each(module, name):
        original = getattr(module, name)

        def solve(*args):
            before = newtons[0]
            out = original(*args)
            solves[name, newtons[0] - before] += 1
            return out

        monkeypatch.setattr(module, name, solve)

    one_newton_each(herglotz, "_secular_solve")
    one_newton_each(rankn, "_endpoint_crossings")
    monkeypatch.setattr(rankn, "_safeguarded_newton", counted_newton)
    monkeypatch.setattr(herglotz, "_safeguarded_newton", counted_newton)
    for path in sorted((PACKAGE / "scenarios").glob("*.json")):
        assert scenarios.run_scenario(path, workers=1).all_passed
    assert sorted(solves) == [("_endpoint_crossings", 1),
                              ("_secular_solve", 1)]


def test_model_space_solves_one_level_set_of_theta(monkeypatch):
    # The 2N nodes are theta's own level sets at +-i: one level_set_batch
    # call, on theta (degree N), never on the degree-2N product theta^2.
    calls = []
    original = herglotz.level_set_batch

    def watched(theta, alphas):
        calls.append((theta, np.asarray(alphas, dtype=complex)))
        return original(theta, alphas)

    monkeypatch.setattr(herglotz, "level_set_batch", watched)
    for n in (1, 3, 16):
        calls.clear()
        theta = scenarios.random_blaschke(scenarios._rng(n), n,
                                          zero_at_origin=True)
        ms = build_model_space(theta)
        assert [(solved is theta, solved.degree, alphas.tolist())
                for solved, alphas in calls] == [(True, n, [1j, -1j])]
        assert ms.grid.size == 2 * n


def test_curve_average_integrates_between_its_jumps(monkeypatch):
    # The left side of curve_disintegration_check, its first integrate_line
    # call, gets the eigenvalue crossings of the arc endpoints as
    # breakpoints, so GK15 never bisects a jump: on each bundled curve case
    # it sees a few smooth panels (bisecting took 1,005 to 1,095 nodes).
    cases = []
    check = scenarios.curve_disintegration_check
    integrate = rankn.integrate_line

    def tracked(*args, **kwargs):
        cases.append([])
        return check(*args, **kwargs)

    def counting(f, *args, **kwargs):
        nodes = [0]
        cases[-1].append(nodes)

        def counted(s):
            nodes[0] += np.size(s)
            return f(s)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(scenarios, "curve_disintegration_check", tracked)
    monkeypatch.setattr(rankn, "integrate_line", counting)
    assert scenarios.run_scenario(PACKAGE / "scenarios" / "rankn.json",
                                  workers=1).all_passed
    left = [calls[0][0] for calls in cases]
    assert len(left) == 3
    assert max(left) <= 150


def test_coupling_average_integrates_between_its_jumps(monkeypatch):
    # disintegration_check_line integrates over every coupling in two
    # charts, lam and 1/lam on [-1, 1], with breakpoints at 0 and at the
    # crossings of the set's endpoints: each bundled record sees a few
    # smooth panels (the windowed average with exact tails took 150 to 360
    # nodes).
    nodes = []
    integrate = rankone.integrate_line

    def counting(f, *args, **kwargs):
        nodes.append(0)

        def counted(s):
            nodes[-1] += np.size(s)
            return f(s)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(rankone, "integrate_line", counting)
    for name in ("disintegration", "secular-sweep"):
        assert scenarios.run_scenario(PACKAGE / "scenarios" / f"{name}.json",
                                      workers=1).all_passed
    assert len(nodes) == 10
    per_record = [near + far for near, far in zip(nodes[::2], nodes[1::2])]
    assert max(per_record) <= 120, per_record


class _ReadLog(dict):
    """A JSON object that logs the path of every field read from it; its
    objects and lists, at any depth, log theirs too."""

    def __init__(self, obj, where, read):
        super().__init__((key, _logged(value, f"{where}.{key}", read))
                         for key, value in obj.items())
        self.where, self.read = where, read

    def __getitem__(self, key):
        self.read.add(f"{self.where}.{key}")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(f"{self.where}.{key}")
        return super().get(key, default)


def _logged(value, where, read):
    if isinstance(value, dict):
        return _ReadLog(value, where, read)
    if isinstance(value, list):
        return [_logged(v, f"{where}[{k}]", read) for k, v in enumerate(value)]
    return value


def _field_paths(value, where):
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"{where}.{key}"
            yield from _field_paths(item, f"{where}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _field_paths(item, f"{where}[{k}]")


def test_every_bundled_field_is_read():
    # A field no handler reads is an option that went away, or a typo; it
    # would sit in the shipped files doing nothing.
    paths = sorted((PACKAGE / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        obj = json.loads(path.read_text())
        read = set()
        checks = _logged(obj["checks"], "checks", read)
        assert scenarios.run_scenario(dict(obj, checks=checks),
                                      workers=1).all_passed
        unread = sorted(set(_field_paths(obj["checks"], "checks")) - read)
        assert unread == [], path.name


def test_every_tolerance_class_is_read(monkeypatch):
    # A class no check reads would be validated and overridable, and do
    # nothing.
    read = set()
    load = scenarios.load_scenario

    def logged(source):
        scen = load(source)
        return dataclasses.replace(
            scen, tolerances=_ReadLog(scen.tolerances, "tolerances", read))

    monkeypatch.setattr(scenarios, "load_scenario", logged)
    paths = sorted((PACKAGE / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        assert scenarios.run_scenario(path, workers=1).all_passed
    unread = sorted(f"tolerances.{name}" for name in scenarios.DEFAULT_TOLERANCES
                    if f"tolerances.{name}" not in read)
    assert unread == []


def test_record_counts_follow_the_benchmark_rule(monkeypatch):
    # perfbench's verify-all counts the records each check entry must
    # yield; every entry of every bundled scenario must yield that many,
    # in check order.  Read perfbench without writing bytecode into it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        expected_record_count = importlib.import_module(
            "workloads").expected_record_count
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracle", None)
    owner = {}
    for check, handler in list(scenarios.CHECKS.items()):
        def tagged(seed, idx, spec, tol, _handler=handler):
            records = _handler(seed, idx, spec, tol)
            owner.update((id(rec), idx) for rec in records)
            return records

        monkeypatch.setitem(scenarios.CHECKS, check, tagged)
    paths = sorted((PACKAGE / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        entries = scenarios.load_scenario(path).checks
        report = scenarios.run_scenario(path, workers=2)
        want = [idx for idx, entry in enumerate(entries)
                for _ in range(expected_record_count(entry))]
        assert [owner[id(rec)] for rec in report.records] == want, path.name
