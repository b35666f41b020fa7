"""Scenario configuration, seeded generators, check registry, run reports.

A scenario is a JSON file naming a seed, optional tolerance overrides and a
list of checks; each check pulls its inputs (operator models, inner
functions, perturbation families, Borel sets, parameter grids) either
explicitly from the file or from the seeded generator.  One driver walks
the item list of every check entry, and every field is read through a
validating reader, the library's own for an explicit model, inner
function, family or measure, so a malformed entry raises ScenarioError
naming the field, e.g. ``checks[0].models[1].random.N``.  All randomness
derives from the single scenario seed through a counter-based Philox
generator keyed by (seed, check index, item index), so reruns are
bit-identical and checks can execute concurrently without sharing state.
A check over a parameter grid solves each item's grid in one stacked call
of the route under test and one stacked call of its dense oracle, not one
call per alpha or coupling; each row is then compared as its own measure.

Report values are serialized as shortest round-trip decimal strings of the
underlying binary64 numbers; wall-clock timings are kept out of the
serialized report unless explicitly requested, which keeps repeated runs
byte-identical.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import ClarkLabError, ScenarioError
from .fields import _count, _field, _kind, _list, _pair, _real, _reals
from .herglotz import BlaschkeProduct, blaschke_eval, blaschke_from_json_dict
from .measures import (BorelSetSpec, LineAtomicMeasure, TWO_PI,
                       cauchy_transform_disk, measure_from_json_dict)
from .modelspace import (_intertwine_residual, _transform_context,
                         build_model_space, lemma7_decompose, knu_alpha,
                         t_alpha_matrix, v_alpha, v_alpha_star)
from .rankone import (CyclicOperatorModel, _circle_measures, _clark_measures,
                      _perturbed_selfadjoint, _selfadjoint_oracle,
                      _unitary_oracle, circle_measure_deviation, clark_measure,
                      disintegration_check_circle, disintegration_check_line,
                      inner_from_unitary, model_from_json_dict,
                      simon_wolff_classify)
from .rankn import (AnalyticCurve, RankNPerturbationFamily, _staged_spectra,
                    curve_disintegration_check, family_from_json_dict,
                    family_model_space, herglotz_positivity_check,
                    knu_alpha_beta, phi_density, theorem4_axis_criterion,
                    theorem9_nullset_check)

DEFAULT_TOLERANCES = {
    "algebraic": 1e-9,   # exact identities evaluated in closed form
    "oracle": 1e-8,      # cross-checks against dense eigendecompositions
}


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _random_sites(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    gap = 1.0 / (4.0 * n)
    if kind == "line":
        span = 2.0 - (n - 1) * gap
        u = np.sort(rng.uniform(0.0, span, n))
        return -1.0 + u + gap * np.arange(n)
    span = TWO_PI - n * gap
    u = np.sort(rng.uniform(0.0, span, n))
    return u + gap * np.arange(n)


def random_model_rng(rng: np.random.Generator, n: int, kind: str
                     ) -> CyclicOperatorModel:
    if n < 1:
        raise ScenarioError(f"model size must be >= 1, got {n}")
    sites = _random_sites(rng, n, kind)
    weights = rng.dirichlet(np.ones(n))
    weights = weights / math.fsum(weights)
    return CyclicOperatorModel.from_data(kind, sites, weights)


def random_model(seed: int, n: int, kind: str) -> CyclicOperatorModel:
    """Deterministic random model: sites with minimum separation 1/(4N),
    symmetric-Dirichlet weights, fully determined by the seed."""
    return random_model_rng(_rng(int(seed)), n, kind)


def random_unimodular(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, TWO_PI, count))


def random_blaschke(rng: np.random.Generator, degree: int,
                    max_radius: float = 0.8,
                    zero_at_origin: bool = False) -> BlaschkeProduct:
    free = degree - 1 if zero_at_origin else degree
    radii = max_radius * np.sqrt(rng.uniform(0.0, 1.0, free))
    angles = rng.uniform(0.0, TWO_PI, free)
    zeros = list(radii * np.exp(1j * angles))
    if zero_at_origin:
        zeros = [0.0 + 0.0j] + zeros
    c = complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))
    return BlaschkeProduct(tuple(zeros), c)


def random_orthogonal_unit_vector(rng: np.random.Generator, base: np.ndarray
                                  ) -> np.ndarray:
    """Unit vector orthogonal to ``base`` with every component at least 1e-3
    in modulus (orthogonality gives f(0) = 0 in the model-space picture;
    nonvanishing components keep it cyclic for a diagonal base operator)."""
    n = base.size
    for _ in range(256):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = v - (np.vdot(base, v)) * base / np.vdot(base, base)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        v = v / norm
        if np.min(np.abs(v)) >= 1e-3:
            return v
    raise ScenarioError("could not draw a cyclic orthogonal vector")


def random_family(rng: np.random.Generator, dimension: int, n: int
                  ) -> RankNPerturbationFamily:
    base = random_model_rng(rng, dimension, "circle")
    phi1 = base.cyclic_vector().astype(complex)
    vectors = [phi1]
    for _ in range(n - 1):
        vectors.append(random_orthogonal_unit_vector(rng, phi1))
    return RankNPerturbationFamily(base, tuple(vectors))


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------

def _resolve_model(spec: Any, rng: np.random.Generator, where: str
                   ) -> tuple[CyclicOperatorModel, str]:
    if isinstance(spec, dict) and "random" in spec:
        r = spec["random"]
        n = _count(_field(r, "N", f"{where}.random"), f"{where}.random.N")
        kind = _kind(r.get("kind", "line"), f"{where}.random.kind")
        return random_model_rng(rng, n, kind), f"random(N={n},kind={kind})"
    if isinstance(spec, dict) and "kind" in spec:
        model = model_from_json_dict(spec, where)
        return model, f"explicit({model.kind},N={model.dimension})"
    raise ScenarioError(f"{where}: unrecognized model spec {spec!r}")


def _resolve_theta(spec: Any, rng: np.random.Generator, where: str,
                   zero_at_origin: bool = False) -> tuple[BlaschkeProduct, str]:
    if isinstance(spec, dict) and "power" in spec:
        k = _count(spec["power"], f"{where}.power")
        return BlaschkeProduct((0.0 + 0.0j,) * k, 1.0 + 0.0j), f"z^{k}"
    if isinstance(spec, dict) and "random_degree" in spec:
        deg = _count(spec["random_degree"], f"{where}.random_degree")
        radius = _real(spec.get("max_radius", 0.8), f"{where}.max_radius", 0, 1)
        theta = random_blaschke(rng, deg, radius, zero_at_origin)
        return theta, f"random(degree={deg})"
    if isinstance(spec, dict) and "zeros" in spec:
        theta = blaschke_from_json_dict(spec, where)
        return theta, f"explicit(degree={theta.degree})"
    raise ScenarioError(f"{where}: unrecognized inner-function spec {spec!r}")


def _resolve_borel(spec: Any, where: str) -> BorelSetSpec:
    space = _kind(_field(spec, "space", where), f"{where}.space")
    pieces = _list(_field(spec, "pieces", where), f"{where}.pieces", empty=True)
    return BorelSetSpec(space, tuple(_pair(piece, f"{where}.pieces[{k}]")
                                     for k, piece in enumerate(pieces)))


def _resolve_family(spec: Any, rng: np.random.Generator, where: str
                    ) -> tuple[RankNPerturbationFamily, str]:
    if isinstance(spec, dict) and "random" in spec:
        r = spec["random"]
        big_n = _count(_field(r, "N", f"{where}.random"), f"{where}.random.N")
        n = _count(r.get("n", 2), f"{where}.random.n")
        return random_family(rng, big_n, n), f"random(N={big_n},n={n})"
    if isinstance(spec, dict) and "base" in spec:
        fam = family_from_json_dict(spec, where)
        return fam, f"explicit(N={fam.base.dimension},n={fam.n})"
    raise ScenarioError(f"{where}: unrecognized family spec {spec!r}")


def _resolve_curve(spec: Any, rng: np.random.Generator, where: str
                   ) -> tuple[AnalyticCurve, str]:
    if not isinstance(spec, dict) or "components" not in spec:
        raise ScenarioError(f"{where}: unrecognized curve spec {spec!r}")
    comps = []
    labels = []
    for k, comp in enumerate(_list(spec["components"], f"{where}.components")):
        theta, label = _resolve_theta(comp, rng, f"{where}.components[{k}]")
        comps.append(theta)
        labels.append(label)
    return AnalyticCurve(tuple(comps)), "(" + ",".join(labels) + ")"


# ---------------------------------------------------------------------------
# Records and reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    check: str
    parameters: dict
    observed: Any
    expected: Any
    tolerance: float
    passed: bool
    wall_ms: float | None = None


@dataclass
class RunReport:
    scenario: str
    seed: int
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": passed,
                "failed": len(self.records) - passed}


def _jsonify(value: Any) -> Any:
    """Report encoding: binary64 values become shortest round-trip decimal
    strings so no bits are lost in transit.  numpy scalars are converted to
    Python scalars first (np.float64 is a float subclass whose repr names
    its type)."""
    if isinstance(value, np.generic):
        return _jsonify(value.item())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return [repr(value.real), repr(value.imag)]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return str(value)


def report_to_json(report: RunReport, timings: bool = False) -> str:
    payload = {
        "scenario": report.scenario,
        "seed": report.seed,
        "summary": report.summary(),
        "records": [
            {
                "check": r.check,
                "parameters": _jsonify(r.parameters),
                "observed": _jsonify(r.observed),
                "expected": _jsonify(r.expected),
                "tolerance": repr(r.tolerance),
                "pass": bool(r.passed),
                "wall_ms": (repr(r.wall_ms) if (timings and r.wall_ms is not None)
                            else None),
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Check handlers.  A check entry lists its items under one field, and its
# body checks one item: _each turns the body into the handler that CHECKS
# holds, which receives (scenario seed, check index, spec, tolerances) and
# returns a list of CheckRecords.
# ---------------------------------------------------------------------------

class _Item(NamedTuple):
    """One entry of a check's list field, as the check's body receives it."""
    spec: Any                 # the entry as the scenario gives it
    index: int                # its position in the list
    where: str                # its field path, e.g. checks[0].models[1]
    check: str                # the check entry's path, e.g. checks[0]
    key: tuple                # (seed, check index, index)
    rng: np.random.Generator  # the generator keyed by ``key``


def _each(field_name: str, body: Callable) -> Callable:
    """The handler that runs ``body(item, spec, tol)`` on every entry of the
    check's non-empty list ``spec[field_name]`` and joins their records in
    list order.  A ClarkLabError raised by the body leaves carrying the
    entry's path as ``input``."""
    def handler(seed, idx, spec, tol) -> list[CheckRecord]:
        check = f"checks[{idx}]"
        where = f"{check}.{field_name}"
        records = []
        for i, value in enumerate(_list(spec.get(field_name), where)):
            key = (seed, idx, i)
            item = _Item(value, i, f"{where}[{i}]", check, key, _rng(*key))
            try:
                records += body(item, spec, tol)
            except ClarkLabError as exc:
                exc.input = item.where
                raise
        return records
    return handler


def _within(name: str, params: dict, dev: float, tol: float) -> CheckRecord:
    """The record of a deviation from 0 that passes within ``tol``."""
    return CheckRecord(name, params, dev, 0.0, tol, dev <= tol)


def _check_secular_oracle(item, spec, tol) -> list[CheckRecord]:
    records = []
    lambdas = _reals(spec.get("lambdas", [0.5, -0.5]), f"{item.check}.lambdas")
    model, label = _resolve_model(item.spec, item.rng, item.where)
    got = _perturbed_selfadjoint(model, lambdas)
    want_positions, want_masses = _selfadjoint_oracle(model, lambdas)
    for lam, mu, positions, masses in zip(lambdas, got, want_positions,
                                          want_masses):
        want = LineAtomicMeasure.from_atoms(zip(positions, masses))
        pos_dev = float(np.max(np.abs(np.asarray(mu.positions)
                                      - np.asarray(want.positions))))
        mass_dev = float(np.max(np.abs(np.asarray(mu.masses)
                                       - np.asarray(want.masses))))
        params = {"model": label, "index": item.index, "lambda": lam}
        records += [_within("secular_oracle.positions", params, pos_dev,
                            1e-9 * (1.0 + abs(lam))),
                    _within("secular_oracle.masses", params, mass_dev, tol["oracle"])]
    return records


def _check_clark_correspondence(item, spec, tol) -> list[CheckRecord]:
    n_alphas = _count(spec.get("alpha_count", 8), f"{item.check}.alpha_count")
    model, label = _resolve_model(item.spec, item.rng, item.where)
    alphas = random_unimodular(item.rng, n_alphas)
    got = _clark_measures(inner_from_unitary(model), alphas)
    want = _circle_measures(*_unitary_oracle(model, alphas))
    atom_dev = 0.0
    mass_dev = 0.0
    for mu, oracle in zip(got, want):
        da, dm = circle_measure_deviation(mu, oracle)
        atom_dev = max(atom_dev, da)
        mass_dev = max(mass_dev, dm)
    params = {"model": label, "index": item.index, "alphas": len(alphas)}
    return [_within("clark_correspondence.atoms", params, atom_dev, tol["algebraic"]),
            _within("clark_correspondence.masses", params, mass_dev, tol["oracle"])]


def _check_disintegration(item, spec, tol) -> list[CheckRecord]:
    """disintegration_line on a model or disintegration_circle on an inner
    function: one record per Borel set of the check, each against the
    check's own ``tol``."""
    check = spec["check"]
    if check == "disintegration_line":
        default, subject, resolve, route = (1e-3, "model", _resolve_model,
                                            disintegration_check_line)
    else:
        default, subject, resolve, route = (1e-6, "theta", _resolve_theta,
                                            disintegration_check_circle)
    check_tol = _real(spec.get("tol", default), f"{item.check}.tol", 0)
    value, label = resolve(item.spec, item.rng, item.where)
    records = []
    for j, bspec in enumerate(_list(spec.get("borel_sets"),
                                    f"{item.check}.borel_sets")):
        borel = _resolve_borel(bspec, f"{item.check}.borel_sets[{j}]")
        res = route(value, borel, tol=check_tol)
        params = {subject: label, "index": item.index, "borel": j}
        records.append(CheckRecord(check, params, res.estimate, res.expected,
                                   check_tol, res.defect <= check_tol))
    return records


def _check_modelspace_suite(item, spec, tol) -> list[CheckRecord]:
    n_alphas = _count(spec.get("alpha_count", 4), f"{item.check}.alpha_count")
    n_vectors = _count(spec.get("vector_count", 20), f"{item.check}.vector_count")
    rng = item.rng
    degree = _count(item.spec, item.where)
    theta = random_blaschke(rng, degree, zero_at_origin=True)
    ms = build_model_space(theta)
    alphas = random_unimodular(rng, n_alphas)
    # the isometry draws keep their order: alpha_1, vals_1, alpha_2, ...
    iso_alphas, iso_vals = [], []
    for _ in range(n_vectors):
        iso_alphas.append(random_unimodular(rng, 1)[0])
        iso_vals.append(rng.normal(size=degree) + 1j * rng.normal(size=degree))
    mus = _clark_measures(theta, np.concatenate([alphas, iso_alphas]))
    ts = t_alpha_matrix(ms, alphas)
    unit_dev = float(np.max(np.linalg.norm(
        np.swapaxes(ts.conj(), -1, -2) @ ts - np.eye(degree), 2, axis=(-2, -1))))
    eig_angles = np.sort(np.angle(np.linalg.eigvals(ts)) % TWO_PI, axis=-1)
    intertwine_dev = 0.0
    spectral_dev = 0.0
    for mu, t, angles in zip(mus, ts, eig_angles):
        intertwine_dev = max(intertwine_dev, _intertwine_residual(ms, mu, t))
        spectral_dev = max(spectral_dev, float(np.max(np.abs(np.angle(
            np.exp(1j * (angles - np.asarray(mu.angles))))))))
    iso_dev = 0.0
    for alpha, mu, vals in zip(iso_alphas, mus[n_alphas:], iso_vals):
        f = v_alpha(ms, alpha, vals, mu=mu)
        l2 = math.sqrt(float(np.sum(np.asarray(mu.masses) * np.abs(vals) ** 2)))
        iso_dev = max(iso_dev, abs(f.norm() - l2))
    params = {"degree": degree, "alphas": n_alphas}
    return [_within("modelspace.unitarity", params, unit_dev, 1e-10),
            _within("modelspace.intertwine", params, intertwine_dev, tol["algebraic"]),
            _within("modelspace.spectral", params, spectral_dev, tol["algebraic"]),
            _within("modelspace.isometry", params, iso_dev, tol["algebraic"])]


def _check_lemma7_suite(item, spec, tol) -> list[CheckRecord]:
    records = []
    n_samples = _count(spec.get("samples", 64), f"{item.check}.samples")
    n_vectors = _count(spec.get("vector_count", 2), f"{item.check}.vector_count")
    rng = item.rng
    theta, label = _resolve_theta(item.spec, rng, item.where, zero_at_origin=True)
    ms = build_model_space(theta)
    for rep in range(n_vectors):
        coeffs = rng.normal(size=theta.degree) + 1j * rng.normal(size=theta.degree)
        coeffs /= np.linalg.norm(coeffs)
        f = ms.vector(coeffs)
        g, h = lemma7_decompose(ms, f)
        xi = np.exp(1j * rng.uniform(0.0, TWO_PI, n_samples))
        f0, f0h = map(ms.vector, _transform_context(ms, f).coeffs[:2])
        resid = np.abs(ms.eval_vector(f0, xi) * ms.eval_vector(f0h, xi)
                       - ms.eval_vector(g, xi)
                       - blaschke_eval(ms.theta, xi) * ms.eval_vector(h, xi))
        boundary_dev = float(np.max(resid))
        alpha = complex(random_unimodular(rng, 1)[0])
        z = 0.6 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu = clark_measure(theta, alpha)
        fvals = np.abs(v_alpha_star(ms, alpha, f, mu=mu)) ** 2
        weighted = type(mu).from_atoms(zip(mu.angles, fvals * np.asarray(mu.masses)))
        direct = cauchy_transform_disk(weighted, z)
        closed = knu_alpha(ms, f, alpha, z)
        transform_dev = abs(direct - closed)
        params = {"theta": label, "index": item.index, "rep": rep}
        records += [
            _within("lemma7.boundary", params, boundary_dev, tol["algebraic"]),
            _within("lemma7.transform", params, transform_dev, tol["algebraic"])]
    return records


def _check_two_parameter_oracle(item, spec, tol) -> list[CheckRecord]:
    na = _count(spec.get("alpha_count", 8), f"{item.check}.alpha_count")
    nb = _count(spec.get("beta_count", 8), f"{item.check}.beta_count")
    nz = _count(spec.get("z_count", 4), f"{item.check}.z_count")
    rng = item.rng
    family, label = _resolve_family(item.spec, rng, item.where)
    ms, f = family_model_space(family)
    alphas = random_unimodular(rng, na)
    betas = random_unimodular(rng, nb)
    zs = 0.7 * np.sqrt(rng.uniform(0, 1, nz)) * random_unimodular(rng, nz)
    points = np.stack(np.meshgrid(alphas, betas, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    angles, masses = _staged_spectra(family, points, family.vectors[1])
    # cauchy_transform_disk of every oracle measure at every z
    direct = np.sum(masses[:, None, :] / (
        1.0 - np.exp(-1j * angles)[:, None, :] * zs[:, None]), axis=-1)
    closed = knu_alpha_beta(ms, f, points[:, :1], points[:, 1:], zs)
    dev = float(np.max(np.abs(direct - closed)))
    params = {"family": label, "index": item.index, "grid": f"{na}x{nb}x{nz}"}
    return [_within("two_parameter_oracle", params, dev, tol["oracle"])]


def _check_positivity_bounds(item, spec, tol) -> list[CheckRecord]:
    na = _count(spec.get("alpha_count", 32), f"{item.check}.alpha_count")
    nz = _count(spec.get("z_count", 32), f"{item.check}.z_count")
    max_r = _real(spec.get("max_z_radius", 0.95), f"{item.check}.max_z_radius",
                  0, 1)
    rng = item.rng
    family, label = _resolve_family(item.spec, rng, item.where)
    ms, f = family_model_space(family)
    alphas = random_unimodular(rng, na)
    zs = max_r * np.sqrt(rng.uniform(0, 1, nz)) * random_unimodular(rng, nz)
    smallest = herglotz_positivity_check(ms, f, alphas, zs)
    params = {"family": label, "index": item.index}
    records = [CheckRecord("positivity.min_real_part", params, smallest, 0.5, 1e-9,
                           smallest > 0.5 - 1e-9)]
    curves = _list(spec.get("curves", []), f"{item.check}.curves", empty=True)
    for j, cspec in enumerate(curves):
        curve, clabel = _resolve_curve(cspec, _rng(*item.key, j),
                                       f"{item.check}.curves[{j}]")
        worst = float(np.max(np.abs(phi_density(ms, f, curve, zs)), initial=0.0))
        bound = 1.0 / (1.0 - abs(blaschke_eval(curve.components[1], 0.0)))
        params = {"family": label, "curve": clabel, "index": item.index}
        records.append(_within("positivity.phi_bound", params, worst - bound, 1e-9))
    return records


def _check_curve_disintegration(item, spec, tol) -> list[CheckRecord]:
    check_tol = _real(spec.get("tol", 1e-4), f"{item.check}.tol", 0)
    case, where = item.spec, item.where
    family, flabel = _resolve_family(_field(case, "family", where), item.rng,
                                     f"{where}.family")
    curve, clabel = _resolve_curve(_field(case, "curve", where), item.rng,
                                   f"{where}.curve")
    borel = _resolve_borel(_field(case, "borel", where), f"{where}.borel")
    res = curve_disintegration_check(family, curve, borel, tol=check_tol)
    params = {"family": flabel, "curve": clabel, "index": item.index}
    return [CheckRecord("curve_disintegration", params, res.average,
                        res.density_integral, check_tol, res.defect <= check_tol)]


def _check_simon_wolff(item, spec, tol) -> list[CheckRecord]:
    mu = measure_from_json_dict(_field(item.spec, "measure", item.where),
                                f"{item.where}.measure")
    if not isinstance(mu, LineAtomicMeasure):
        raise ScenarioError(f"{item.where}.measure: simon_wolff needs a line measure")
    probes = _reals(_field(item.spec, "probes", item.where), f"{item.where}.probes")
    # a probe's integral is finite exactly when it misses every atom
    mismatches = sum(rec["finite"] == (rec["probe"] in mu.positions)
                     for rec in simon_wolff_classify(mu, probes))
    params = {"index": item.index, "probes": len(probes)}
    return [CheckRecord("simon_wolff.classification", params, mismatches, 0, 0.0,
                        mismatches == 0)]


def _check_theorem4_axis(item, spec, tol) -> list[CheckRecord]:
    n_probes = _count(spec.get("probe_count", 16), f"{item.check}.probe_count")
    family, label = _resolve_family(item.spec, item.rng, item.where)
    probes = random_unimodular(item.rng, n_probes)
    reports = theorem4_axis_criterion(family, probes)
    bad = sum(1 for rep in reports for rec in rep["records"] if not rec["finite"])
    atom_probes = [complex(np.exp(1j * a)) for a in family.base.sites]
    at_atoms = theorem4_axis_criterion(family, atom_probes)
    bad_atoms = sum(1 for rep in at_atoms for rec in rep["records"] if rec["finite"])
    params = {"family": label, "index": item.index}
    return [CheckRecord("theorem4.off_atoms_finite", params, bad, 0, 0.0, bad == 0),
            CheckRecord("theorem4.at_atoms_infinite", params, bad_atoms, 0, 0.0,
                        bad_atoms == 0)]


def _check_theorem9_nullset(item, spec, tol) -> list[CheckRecord]:
    case, where = item.spec, item.where
    family, flabel = _resolve_family(_field(case, "family", where), item.rng,
                                     f"{where}.family")
    curve, clabel = _resolve_curve(_field(case, "curve", where), item.rng,
                                   f"{where}.curve")
    null_angles = _reals(case.get("null_angles", []), f"{where}.null_angles",
                         empty=True)
    n_xi = _count(case.get("xi_count", 32), f"{where}.xi_count")
    xi_angles = item.rng.uniform(0.0, TWO_PI, n_xi)
    report = theorem9_nullset_check(family, curve, null_angles, xi_angles)
    params = {"family": flabel, "curve": clabel, "index": item.index,
              "null_points": len(null_angles)}
    return [CheckRecord("theorem9.nullset", params, len(report["violations"]), 0,
                        0.0, report["pass"])]


CHECKS: dict[str, Callable] = {
    "secular_oracle": _each("models", _check_secular_oracle),
    "clark_correspondence": _each("models", _check_clark_correspondence),
    "disintegration_line": _each("models", _check_disintegration),
    "disintegration_circle": _each("thetas", _check_disintegration),
    "modelspace_suite": _each("degrees", _check_modelspace_suite),
    "lemma7_suite": _each("thetas", _check_lemma7_suite),
    "two_parameter_oracle": _each("families", _check_two_parameter_oracle),
    "positivity_bounds": _each("families", _check_positivity_bounds),
    "curve_disintegration": _each("cases", _check_curve_disintegration),
    "simon_wolff": _each("cases", _check_simon_wolff),
    "theorem4_axis": _each("families", _check_theorem4_axis),
    "theorem9_nullset": _each("cases", _check_theorem9_nullset),
}


# ---------------------------------------------------------------------------
# Scenario loading and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    tolerances: dict
    checks: tuple


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from a path, JSON text, or dict."""
    if isinstance(source, dict):
        obj = source
    else:
        text = Path(source).read_text() if not str(source).lstrip().startswith("{") \
            else str(source)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"scenario JSON parse error at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: top level must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: required non-empty string")
    seed = obj.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError("seed: required non-negative integer")
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = obj.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ScenarioError("tolerances: must be an object")
    for key, val in overrides.items():
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"tolerances.{key}: unknown tolerance class")
        tolerances[key] = _real(val, f"tolerances.{key}", 0)
    checks = _list(obj.get("checks"), "checks")
    for i, chk in enumerate(checks):
        check = _field(chk, "check", f"checks[{i}]")
        if not isinstance(check, str) or check not in CHECKS:
            raise ScenarioError(f"checks[{i}].check: unknown check {check!r}")
    return Scenario(name=name, seed=seed, tolerances=tolerances,
                    checks=tuple(checks))


def run_scenario(source, workers: int = 1) -> RunReport:
    """Execute every check in the scenario; deterministic for a fixed seed.

    Records are assembled in check order regardless of completion order, so
    the report is identical for any worker count.  A ClarkLabError raised
    by a check becomes one failed record, which names the entry that raised
    as ``input``; a ScenarioError propagates.
    """
    scenario = load_scenario(source)

    def run_one(pair):
        idx, chk = pair
        handler = CHECKS[chk["check"]]
        start = time.perf_counter()
        try:
            records = handler(scenario.seed, idx, chk, scenario.tolerances)
        except ScenarioError:
            raise
        except ClarkLabError as exc:
            params = {"index": idx, "error": type(exc).__name__,
                      "message": str(exc)}
            if hasattr(exc, "input"):
                params["input"] = exc.input
            records = [CheckRecord(chk["check"], params, None, None, 0.0, False)]
        elapsed = (time.perf_counter() - start) * 1e3
        for rec in records:
            rec.wall_ms = elapsed
        return records

    items = list(enumerate(scenario.checks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_one, items))
    else:
        chunks = [run_one(item) for item in items]

    report = RunReport(scenario=scenario.name, seed=scenario.seed)
    for chunk in chunks:
        report.records.extend(chunk)
    return report
