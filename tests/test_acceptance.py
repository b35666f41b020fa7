"""Acceptance suite: one test per release criterion, each emitting a
PASS/FAIL line (collected into the terminal summary; also printed live under
``pytest -s``).  Tolerances are pinned here and nowhere else."""

import cmath
import json
import math
import time
from importlib import resources

import numpy as np

from clarklab.herglotz import BlaschkeProduct, blaschke_eval
from clarklab.measures import (BorelSetSpec, LineAtomicMeasure,
                               cauchy_transform_disk, simon_wolff_integral)
from clarklab.modelspace import (build_model_space, hat_conjugate,
                                 intertwine_check, knu_alpha,
                                 lemma7_decompose, t_alpha_matrix, v_alpha)
from clarklab.rankone import (CyclicOperatorModel, circle_measure_deviation,
                              clark_measure, disintegration_check_circle,
                              disintegration_check_line, inner_from_unitary,
                              matrix_oracle_selfadjoint, matrix_oracle_unitary,
                              perturb_selfadjoint, perturb_unitary,
                              spectral_measure)
from clarklab.rankn import (AnalyticCurve, curve_disintegration_check,
                            family_model_space, herglotz_positivity_check,
                            knu_alpha_beta, phi_density, recursive_unitary,
                            spectral_measure_of_vector)
from clarklab.scenarios import (random_blaschke, random_family, random_model,
                                report_to_json, run_scenario, _rng)


RESULTS: list[str] = []


def _report(name: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, f"{name}: {detail}"


def test_criterion_1_secular_vs_dense_oracle():
    """Transform route and dense eigendecomposition agree across the sweep."""
    start = time.perf_counter()
    worst_pos = 0.0
    worst_mass = 0.0
    for n in (2, 8, 32, 64):
        for seed in range(50):
            model = random_model(1000 * n + seed, n, "line")
            for lam in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
                got = perturb_selfadjoint(model, lam)
                want = matrix_oracle_selfadjoint(model, lam)
                pos = np.max(np.abs(np.asarray(got.positions)
                                    - np.asarray(want.positions)))
                worst_pos = max(worst_pos, pos / (1.0 + abs(lam)))
                worst_mass = max(worst_mass, float(np.max(
                    np.abs(np.asarray(got.masses) - np.asarray(want.masses)))))
    elapsed = time.perf_counter() - start
    ok = worst_pos <= 1e-9 and worst_mass <= 1e-8 and elapsed < 60.0
    _report("1 (secular vs oracle)", ok,
            f"scaled position dev {worst_pos:.3e} (tol 1e-9), mass dev "
            f"{worst_mass:.3e} (tol 1e-8), {elapsed:.1f}s (< 60s)")


def test_criterion_2_clark_correspondence():
    """Three routes to the perturbed unitary measures coincide."""
    worst_atom = 0.0
    worst_mass = 0.0
    for seed in range(20):
        n = (seed % 16) + 1
        model = random_model(2000 + seed, n, "circle")
        theta = inner_from_unitary(model)
        rng = _rng(2100 + seed)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 16)):
            routes = [clark_measure(theta, alpha),
                      perturb_unitary(model, alpha),
                      matrix_oracle_unitary(model, alpha)]
            for other in routes[1:]:
                da, dm = circle_measure_deviation(routes[0], other)
                worst_atom = max(worst_atom, da)
                worst_mass = max(worst_mass, dm)
    ok = worst_atom <= 1e-9 and worst_mass <= 1e-8
    _report("2 (Clark correspondence)", ok,
            f"atom dev {worst_atom:.3e} (tol 1e-9), mass dev {worst_mass:.3e} "
            f"(tol 1e-8) over 20 models x 16 alphas x 3 routes")


def test_criterion_3_disintegration_identities():
    """Family averages recover arc length (circle), Lebesgue measure (line),
    and the curve density integral."""
    worst_circle = 0.0
    arcs = [BorelSetSpec("circle", ((a, a + w),))
            for a, w in ((0.0, math.pi / 2), (1.1, 0.7), (2.5, 2.0),
                         (5.8, 1.1), (4.0, 0.25))]
    thetas = [BlaschkeProduct((0j,), 1.0), BlaschkeProduct((0j, 0j), 1.0),
              random_blaschke(_rng(3001), 8)]
    for theta in thetas:
        for arc in arcs:
            res = disintegration_check_circle(theta, arc, tol=1e-6)
            worst_circle = max(worst_circle, res.defect)

    worst_line = 0.0
    models = [CyclicOperatorModel.from_data("line", [-1.0, 1.0], [0.5, 0.5]),
              random_model(3002, 3, "line"), random_model(3003, 5, "line")]
    intervals = [BorelSetSpec("line", ((-0.5, 0.5),)),
                 BorelSetSpec("line", ((0.0, 1.0),)),
                 BorelSetSpec("line", ((-2.0, -0.25),))]
    for model in models:
        for interval in intervals:
            res = disintegration_check_line(model, interval, tol=1e-3)
            worst_line = max(worst_line, res.defect)

    worst_curve = 0.0
    z1 = BlaschkeProduct((0j,), 1.0)
    moe = lambda zero, c=1.0: BlaschkeProduct((complex(zero),), complex(c))
    base = CyclicOperatorModel.from_data("circle", [0.0, math.pi], [0.5, 0.5])
    from clarklab.rankn import RankNPerturbationFamily
    fam_sym = RankNPerturbationFamily(
        base, (np.array([1.0, 1.0]) / math.sqrt(2.0),
               np.array([1.0, -1.0]) / math.sqrt(2.0)))
    cases = [
        (fam_sym, AnalyticCurve((z1, z1)),
         BorelSetSpec("circle", ((0.3, 1.4),))),                   # phi == 1
        (random_family(_rng(3004), 4, 2),
         AnalyticCurve((z1, moe(0.5, -1.0))),
         BorelSetSpec("circle", ((0.0, math.pi),))),
        (random_family(_rng(3005), 3, 2),
         AnalyticCurve((moe(0.4 + 0.2j), moe(-0.3 + 0.25j))),
         BorelSetSpec("circle", ((1.0, 2.5),))),
    ]
    for fam, curve, borel in cases:
        res = curve_disintegration_check(fam, curve, borel, tol=1e-4)
        worst_curve = max(worst_curve, res.defect)

    ok = worst_circle <= 1e-6 and worst_line <= 1e-3 and worst_curve <= 1e-4
    _report("3 (disintegration)", ok,
            f"circle defect {worst_circle:.3e} (tol 1e-6), line defect "
            f"{worst_line:.3e} (tol 1e-3), curve defect {worst_curve:.3e} "
            f"(tol 1e-4)")


def test_criterion_4_model_space_suite():
    """Perturbed compressed shifts are unitary, intertwined, isometric."""
    worst_unit = 0.0
    worst_twine = 0.0
    worst_iso = 0.0
    for degree in range(1, 17):
        rng = _rng(4000 + degree)
        theta = random_blaschke(rng, degree, zero_at_origin=True)
        ms = build_model_space(theta)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 3)):
            t = t_alpha_matrix(ms, alpha)
            worst_unit = max(worst_unit, float(np.linalg.norm(
                t.conj().T @ t - np.eye(degree), 2)))
            worst_twine = max(worst_twine, intertwine_check(ms, alpha))
        alpha = complex(np.exp(2j * np.pi * rng.uniform()))
        mu = clark_measure(theta, alpha)
        for _ in range(20):
            vals = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            f = v_alpha(ms, alpha, vals, mu=mu)
            l2 = math.sqrt(float(np.sum(np.asarray(mu.masses)
                                        * np.abs(vals) ** 2)))
            worst_iso = max(worst_iso, abs(f.norm() - l2))
    ok = worst_unit <= 1e-10 and worst_twine <= 1e-9 and worst_iso <= 1e-9
    _report("4 (model space)", ok,
            f"unitarity {worst_unit:.3e} (tol 1e-10), intertwining "
            f"{worst_twine:.3e} (tol 1e-9), isometry {worst_iso:.3e} "
            f"(tol 1e-9) for degrees 1..16")


def test_criterion_5_product_decomposition_suite():
    """Boundary split of f0*hat(f0), its transform, and both worked cases."""
    worst_boundary = 0.0
    worst_transform = 0.0
    for degree in (3, 6, 10):
        rng = _rng(5000 + degree)
        theta = random_blaschke(rng, degree, zero_at_origin=True)
        ms = build_model_space(theta)
        for _ in range(4):
            c = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            c /= np.linalg.norm(c)
            f = ms.vector(c)
            g, h = lemma7_decompose(ms, f)
            f0c = c - ms.eval_vector(f, 0.0) * np.conj(ms.basis_at_zero)
            f0 = ms.vector(f0c)
            f0h = hat_conjugate(ms, f0)
            xi = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
            resid = (ms.eval_vector(f0, xi) * ms.eval_vector(f0h, xi)
                     - ms.eval_vector(g, xi)
                     - blaschke_eval(theta, xi) * ms.eval_vector(h, xi))
            worst_boundary = max(worst_boundary, float(np.max(np.abs(resid))))

            alpha = complex(np.exp(2j * np.pi * rng.uniform()))
            z = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(
                2j * math.pi * rng.uniform())
            mu = clark_measure(theta, alpha)
            weights = (np.abs(ms.eval_vector(f, mu.points())) ** 2
                       * np.asarray(mu.masses))
            from clarklab.measures import CircleAtomicMeasure
            weighted = CircleAtomicMeasure.from_atoms(zip(mu.angles, weights))
            worst_transform = max(worst_transform, abs(
                knu_alpha(ms, f, alpha, z) - cauchy_transform_disk(weighted, z)))

    ms2 = build_model_space(BlaschkeProduct((0j, 0j), 1.0))
    g2, h2 = lemma7_decompose(ms2, ms2.vector([0.0, 1.0]))
    case_a = max(float(np.max(np.abs(np.asarray(g2.coeffs) - [0.0, 0.0]))),
                 float(np.max(np.abs(np.asarray(h2.coeffs) - [1.0, 0.0]))))
    ms3 = build_model_space(BlaschkeProduct((0j, 0j, 0j), 1.0))
    s = 1.0 / math.sqrt(2.0)
    g3, h3 = lemma7_decompose(ms3, ms3.vector([0.0, s, s]))
    case_b = max(float(np.max(np.abs(np.asarray(g3.coeffs) - [0.0, 0.0, 0.5]))),
                 float(np.max(np.abs(np.asarray(h3.coeffs) - [1.0, 0.5, 0.0]))))

    ok = (worst_boundary <= 1e-9 and worst_transform <= 1e-9
          and case_a <= 1e-10 and case_b <= 1e-10)
    _report("5 (product decomposition)", ok,
            f"boundary residual {worst_boundary:.3e} (tol 1e-9), transform "
            f"dev {worst_transform:.3e} (tol 1e-9), worked cases "
            f"{max(case_a, case_b):.3e} (tol 1e-10)")


def test_criterion_6_two_parameter_transform_vs_recursion():
    """Closed-form second-stage transform matches the staged dense oracle."""
    worst = 0.0
    for i, dim in enumerate((3, 5, 6)):
        rng = _rng(6000 + i)
        fam = random_family(rng, dim, 2)
        ms, f = family_model_space(fam)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        betas = np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        zs = 0.7 * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 8))
        for alpha in alphas:
            for beta in betas:
                u = recursive_unitary(fam, [alpha, beta],
                                      check_cyclicity=False)
                nu = spectral_measure_of_vector(u, fam.vectors[1])
                for z in zs:
                    worst = max(worst, abs(
                        cauchy_transform_disk(nu, z)
                        - knu_alpha_beta(ms, f, alpha, beta, z)))
    ok = worst <= 1e-8
    _report("6 (two-parameter transform)", ok,
            f"max deviation {worst:.3e} (tol 1e-8) on 16x16x8 grids, 3 families")


def test_criterion_7_positivity_and_bounds():
    """Herglotz real part exceeds 1/2; curve density obeys its bound."""
    smallest = math.inf
    worst_excess = -math.inf
    moe = lambda zero, c=1.0: BlaschkeProduct((complex(zero),), complex(c))
    for i, dim in enumerate((4, 6)):
        rng = _rng(7000 + i)
        fam = random_family(rng, dim, 2)
        ms, f = family_model_space(fam)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 64))
        zs = 0.99 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 64))
        smallest = min(smallest, herglotz_positivity_check(ms, f, alphas, zs))
        i2 = moe(0.5, -1.0)
        curve = AnalyticCurve((moe(0.3 + 0.2j), i2))
        bound = 1.0 / (1.0 - abs(blaschke_eval(i2, 0.0)))
        for z in zs:
            worst_excess = max(worst_excess,
                               abs(phi_density(ms, f, curve, z)) - bound)
    ok = smallest > 0.5 - 1e-9 and worst_excess <= 1e-9
    _report("7 (positivity and bounds)", ok,
            f"min real part {smallest:.6f} (> 0.5), density bound excess "
            f"{worst_excess:.3e} (tol 1e-9)")


def test_criterion_8_simon_wolff_classification():
    """Finite/infinite matches atom membership exactly; scalar values exact."""
    mismatches = 0
    measures = [spectral_measure(random_model(8000 + k, 4 + k, "line"))
                for k in range(5)]
    measures.append(LineAtomicMeasure.from_atoms([(0.0, 1.0)]))
    for mu in measures:
        probes = list(mu.positions) + [p + 0.123456 for p in mu.positions]
        for p in probes:
            finite = math.isfinite(simon_wolff_integral(mu, p))
            if finite != (p not in mu.positions):
                mismatches += 1
    delta0 = LineAtomicMeasure.from_atoms([(0.0, 1.0)])
    exact = (simon_wolff_integral(delta0, 1.0) == 1.0
             and simon_wolff_integral(delta0, 0.5) == 4.0
             and simon_wolff_integral(delta0, 0.0) == math.inf)
    ok = mismatches == 0 and exact
    _report("8 (Simon-Wolff criterion)", ok,
            f"{mismatches} classification mismatches, scalar closed forms "
            f"exact: {exact}")


def test_criterion_9_determinism():
    """Every bundled scenario produces byte-identical reports on reruns."""
    root = resources.files("clarklab") / "scenarios"
    all_ok = True
    details = []
    for path in sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                       key=lambda p: p.name):
        scenario = json.loads(path.read_text())
        a = report_to_json(run_scenario(scenario))
        b = report_to_json(run_scenario(scenario, workers=2))
        passed = (a == b) and json.loads(a)["summary"]["failed"] == 0
        all_ok = all_ok and passed
        details.append(f"{scenario['name']}:{'ok' if passed else 'DIFF'}")
    _report("9 (determinism)", all_ok, ", ".join(details))
