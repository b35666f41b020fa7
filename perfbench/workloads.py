"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload builds the inputs of pass ``p`` from ``(seed, p)`` alone, so
every pass sees fresh inputs of the same make-up and the same seed always
gives the same inputs.  Program functions are looked up on their module at
call time (``rankone.clark_measure``), so the wrappers the traced run
installs are the ones called.  Checks run after the timed region and
compare each output with ``oracle`` (dense numpy, no clarklab) or with a
property the output must have.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

TWO_PI = 2.0 * math.pi

# Pass index of the warm-up inputs, apart from every timed pass.
WARMUP_PASS = 1 << 30


class Recorder:
    """Calls one program operation, counting attempts, failures and latency."""

    def __init__(self, clock, tracer=None, calibrator=None):
        self.clock = clock
        self.tracer = tracer
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []

    def call(self, route: bool, fn, *args):
        """Run fn(*args); route calls are the ones op latency is taken over.

        A raised exception counts as a failed operation and yields None.
        """
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        try:
            out, seconds = self.measure(fn, *args)
        except Exception as exc:  # the run goes on; the failure is reported
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: "
                                   f"{type(exc).__name__}: {exc}")
            return None
        if route:
            self.latencies.append(seconds)
        return out

    def measure(self, fn, *args):
        """fn(*args) and its time, less the calibration probes run meanwhile."""
        probed = self._probe_time()
        start = self.clock()
        out = fn(*args)
        return out, self.clock() - start - (self._probe_time() - probed)

    def _probe_time(self) -> float:
        return 0.0 if self.calibrator is None else self.calibrator.spent


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _sites(rng, n: int, kind: str) -> np.ndarray:
    """n sorted sites with minimum separation 1/(4n), on [-1, 1] or the circle."""
    gap = 1.0 / (4.0 * n)
    if kind == "line":
        span = 2.0 - (n - 1) * gap
        return -1.0 + np.sort(rng.uniform(0.0, span, n)) + gap * np.arange(n)
    span = TWO_PI - n * gap
    return np.sort(rng.uniform(0.0, span, n)) + gap * np.arange(n)


def _weights(rng, n: int) -> np.ndarray:
    w = rng.dirichlet(np.ones(n))
    return w / math.fsum(w)


def _unimodular(rng, count: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, TWO_PI, count))


def _disk_points(rng, count: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0.0, 1.0, count)) * _unimodular(rng, count)


def _problem(problems: list, text: str) -> None:
    if len(problems) < 20:
        problems.append(text)


class Workload:
    def finish(self, inputs):
        """Checks that need the whole run; none for most workloads."""
        return []


# ---------------------------------------------------------------------------
# secular-line
# ---------------------------------------------------------------------------

class SecularLine(Workload):
    """perturb_selfadjoint on random line models against dense eigh."""

    name = "secular-line"
    route = "rankone.perturb_selfadjoint"
    sizes = (32, 64, 128)
    models_per_size = 3
    couplings = (0.1, -0.1, 1.0, -1.0, 10.0, -10.0)

    def __init__(self, cl):
        self.cl = cl

    def _inputs(self, seed, p, sizes, per_size, couplings):
        model_cls = self.cl.rankone.CyclicOperatorModel
        cases = []
        for n in sizes:
            for k in range(per_size):
                rng = _rng(seed, p, n, k)
                sites = _sites(rng, n, "line")
                weights = _weights(rng, n)
                model = model_cls.from_data("line", sites, weights)
                cases += [(model, sites, weights, lam) for lam in couplings]
        return cases

    def inputs(self, seed, p):
        return self._inputs(seed, p, self.sizes, self.models_per_size, self.couplings)

    def warmup_inputs(self, seed):
        return self._inputs(seed, WARMUP_PASS, self.sizes, 1, self.couplings[:2])

    def run(self, cases, rec):
        rankone = self.cl.rankone
        return [rec.call(True, rankone.perturb_selfadjoint, model, lam)
                for model, _, _, lam in cases]

    def check(self, cases, outputs):
        problems = []
        for (model, sites, weights, lam), mu in zip(cases, outputs):
            if mu is None:
                continue
            where = f"N={len(sites)} lambda={lam}"
            evals, masses = oracle.line_perturbation(sites, weights, lam)
            if len(mu.positions) != len(evals):
                _problem(problems, f"{where}: {len(mu.positions)} atoms, "
                                   f"expected {len(evals)}")
                continue
            pos_dev = float(np.max(np.abs(np.asarray(mu.positions) - evals)))
            mass_dev = float(np.max(np.abs(np.asarray(mu.masses) - masses)))
            if pos_dev > 1e-9 * (1.0 + abs(lam)):
                _problem(problems, f"{where}: position deviation {pos_dev:.3e}")
            if mass_dev > 1e-8:
                _problem(problems, f"{where}: mass deviation {mass_dev:.3e}")
        return problems


# ---------------------------------------------------------------------------
# clark-circle
# ---------------------------------------------------------------------------

class ClarkCircle(Workload):
    """Clark measures and unitary perturbations on the circle.

    level_set_batch is reached one alpha at a time (clark_measure,
    perturb_unitary) and with batches of alphas from the trapezoid
    quadrature (disintegration_check_circle).
    """

    name = "clark-circle"
    route = "rankone.clark_measure / rankone.perturb_unitary"
    model_sizes = (4, 8)
    models_per_size = 2
    # perturb_unitary's masses drift past the 1e-8 transform tolerance on
    # rare N=8 models, so it runs on the N=4 models only.
    perturb_max_size = 4
    blaschke_degrees = (16, 32, 64)
    disintegration_degrees = (8, 16)
    alpha_count = 16
    zero_radius = 0.8
    probe_count = 4

    def __init__(self, cl):
        self.cl = cl

    def _blaschke(self, rng, degree):
        zeros = tuple(_disk_points(rng, degree, self.zero_radius))
        c = complex(_unimodular(rng, 1)[0])
        return self.cl.herglotz.BlaschkeProduct(zeros, c)

    def _inputs(self, seed, p, model_sizes, per_size, degrees, dis_degrees,
                alpha_count):
        cl = self.cl
        models = []
        for n in model_sizes:
            for k in range(per_size):
                rng = _rng(seed, p, 1, n, k)
                sites = _sites(rng, n, "circle")
                weights = _weights(rng, n)
                model = cl.rankone.CyclicOperatorModel.from_data("circle", sites,
                                                                 weights)
                models.append({"model": model, "sites": sites, "weights": weights,
                               "alphas": _unimodular(rng, alpha_count),
                               "zs": _disk_points(rng, self.probe_count, 0.8)})
        blaschkes = []
        for d in degrees:
            rng = _rng(seed, p, 2, d)
            blaschkes.append({"theta": self._blaschke(rng, d),
                              "alphas": _unimodular(rng, alpha_count),
                              "zs": _disk_points(rng, self.probe_count, 0.8)})
        arcs = []
        for d in dis_degrees:
            rng = _rng(seed, p, 3, d)
            theta = self._blaschke(rng, d)
            start = rng.uniform(0.0, TWO_PI)
            length = rng.uniform(0.5, 3.0)
            borel = cl.measures.BorelSetSpec("circle", ((start, start + length),))
            arcs.append({"theta": theta, "borel": borel, "length": length})
        return {"models": models, "blaschkes": blaschkes, "arcs": arcs}

    def inputs(self, seed, p):
        return self._inputs(seed, p, self.model_sizes, self.models_per_size,
                            self.blaschke_degrees, self.disintegration_degrees,
                            self.alpha_count)

    def warmup_inputs(self, seed):
        return self._inputs(seed, WARMUP_PASS, self.model_sizes[:1], 1,
                            self.blaschke_degrees[:1],
                            self.disintegration_degrees[:1], 2)

    def run(self, inp, rec):
        rankone = self.cl.rankone
        out = {"models": [], "blaschkes": [], "arcs": []}
        for case in inp["models"]:
            model = case["model"]
            theta = rec.call(False, rankone.inner_from_unitary, model)
            clark = [None if theta is None else
                     rec.call(True, rankone.clark_measure, theta, a)
                     for a in case["alphas"]]
            pert = [rec.call(True, rankone.perturb_unitary, model, a)
                    for a in case["alphas"]
                    if model.dimension <= self.perturb_max_size]
            out["models"].append([clark, pert])
        for case in inp["blaschkes"]:
            out["blaschkes"].append([rec.call(True, rankone.clark_measure,
                                              case["theta"], a)
                                     for a in case["alphas"]])
        for case in inp["arcs"]:
            out["arcs"].append(rec.call(False, rankone.disintegration_check_circle,
                                        case["theta"], case["borel"]))
        return out

    def check(self, inp, out):
        problems = []
        for case, (clark, pert) in zip(inp["models"], out["models"]):
            model = case["model"]
            for i, alpha in enumerate(case["alphas"]):
                u, v = oracle.circle_model_unitary(case["sites"], case["weights"],
                                                   alpha)
                eig = np.sort(np.angle(np.linalg.eigvals(u)) % TWO_PI)
                resolvent = oracle.resolvent(u, v, case["zs"])
                routes = [("clark_measure", clark[i])]
                if pert:
                    routes.append(("perturb_unitary", pert[i]))
                for label, mu in routes:
                    if mu is None:
                        continue
                    where = f"{label} N={model.dimension} alpha={alpha:.6f}"
                    if len(mu.angles) != eig.size:
                        _problem(problems, f"{where}: {len(mu.angles)} atoms, "
                                           f"expected {eig.size}")
                        continue
                    dev = oracle.cyclic_angle_deviation(mu.angles, eig)
                    if dev > 1e-9:
                        _problem(problems, f"{where}: atom deviation {dev:.3e}")
                    k = oracle.disk_cauchy(mu.angles, mu.masses, case["zs"])
                    kdev = float(np.max(np.abs(k - resolvent)))
                    if kdev > 1e-8:
                        _problem(problems, f"{where}: transform deviation {kdev:.3e}")
        for case, mus in zip(inp["blaschkes"], out["blaschkes"]):
            theta = case["theta"]
            for alpha, mu in zip(case["alphas"], mus):
                if mu is None:
                    continue
                problems += self.check_clark_blaschke(theta, alpha, mu, case["zs"])
        for case, res in zip(inp["arcs"], out["arcs"]):
            if res is None:
                continue
            expected = case["length"] / TWO_PI
            if abs(res.estimate - expected) > 1e-6:
                _problem(problems, f"disintegration degree {case['theta'].degree}: "
                                   f"{float(res.estimate)!r} vs arc share {expected!r}")
        return problems

    @staticmethod
    def check_clark_blaschke(theta, alpha, mu, zs):
        problems = []
        where = f"clark_measure degree {theta.degree} alpha={alpha:.6f}"
        angles = np.asarray(mu.angles)
        if angles.size != theta.degree:
            return [f"{where}: {angles.size} distinct atoms, expected {theta.degree}"]
        resid = float(np.max(np.abs(oracle.blaschke(theta.zeros, theta.c,
                                                    np.exp(1j * angles)) - alpha)))
        if resid > 1e-10:
            _problem(problems, f"{where}: |theta(xi) - alpha| = {resid:.3e}")
        tz = oracle.blaschke(theta.zeros, theta.c, zs)
        want = (1.0 - np.abs(tz) ** 2) / np.abs(alpha - tz) ** 2
        got = oracle.poisson(angles, mu.masses, zs)
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        if rel > 1e-9:
            _problem(problems, f"{where}: Poisson identity off by {rel:.3e} relative")
        return problems


# ---------------------------------------------------------------------------
# two-parameter
# ---------------------------------------------------------------------------

class TwoParameter(Workload):
    """The closed-form two-parameter transform of rank-2 families.

    The cost of model-space work grows with how close the inner function's
    zeros sit to the circle, which the random draw spreads over orders of
    magnitude; each size therefore gets one family from each of two fixed
    bands of that radius, so every pass does comparable work.  The bands
    lie where clarklab's model-space grid has 1024 and 4096 points, the
    lower quartile and the median of an unrestricted N=4 draw.  A band at
    32768 points, the N=8 median, was tried: its times did not follow the
    calibration probe and spread too wide (README.md, "Input recipes").
    """

    name = "two-parameter"
    route = "rankn.knu_alpha_beta"
    sizes = (4, 6, 8)
    radius_bands = ((0.93, 0.96), (0.985, 0.99))
    grid = (8, 8, 4)
    positivity_grid = (32, 32)
    max_draws = 100000

    def __init__(self, cl):
        self.cl = cl

    def _family(self, rng, n, band):
        """Draw a rank-2 family whose inner function has zero radius in band.

        The zeros of the model's inner function are the eigenvalues of the
        alpha = 0 contraction U - phi (U^* phi)^*.
        """
        lo, hi = band
        for _ in range(self.max_draws):
            sites = _sites(rng, n, "circle")
            weights = _weights(rng, n)
            phi1 = np.sqrt(weights).astype(complex)
            u0 = oracle.unitary_update(np.diag(np.exp(1j * sites)), phi1, 0.0)
            radius = float(np.max(np.abs(np.linalg.eigvals(u0))))
            if lo <= radius <= hi:
                break
        else:
            raise RuntimeError(f"no N={n} family with zero radius in {band}")
        while True:
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = v - np.vdot(phi1, v) * phi1
            v = v / np.linalg.norm(v)
            if np.min(np.abs(v)) >= 1e-3:
                break
        base = self.cl.rankone.CyclicOperatorModel.from_data("circle", sites, weights)
        # from_data sorts by site; sites are already sorted, so phi1/phi2
        # stay aligned with base.sites.
        family = self.cl.rankn.RankNPerturbationFamily(base, (phi1, v))
        return family, sites, phi1, v

    def _inputs(self, seed, p, sizes, bands, grid, positivity_grid):
        cases = []
        for n in sizes:
            for b, band in enumerate(bands):
                rng = _rng(seed, p, n, b)
                family, sites, phi1, phi2 = self._family(rng, n, band)
                na, nb, nz = grid
                pa, pz = positivity_grid
                cases.append({"family": family, "sites": sites, "phi1": phi1,
                              "phi2": phi2, "alphas": _unimodular(rng, na),
                              "betas": _unimodular(rng, nb),
                              "zs": _disk_points(rng, nz, 0.7),
                              "pos_alphas": _unimodular(rng, pa),
                              "pos_zs": _disk_points(rng, pz, 0.95)})
        return cases

    def inputs(self, seed, p):
        return self._inputs(seed, p, self.sizes, self.radius_bands, self.grid,
                            self.positivity_grid)

    def warmup_inputs(self, seed):
        return self._inputs(seed, WARMUP_PASS, self.sizes[:1], self.radius_bands[:1],
                            (1, 1, 2), (2, 2))

    def run(self, cases, rec):
        rankn = self.cl.rankn
        outputs = []
        for case in cases:
            space = rec.call(False, rankn.family_model_space, case["family"])
            if space is None:
                outputs.append(None)
                continue
            ms, f = space
            values = [rec.call(True, rankn.knu_alpha_beta, ms, f, a, b, z)
                      for a in case["alphas"] for b in case["betas"]
                      for z in case["zs"]]
            smallest = rec.call(False, rankn.herglotz_positivity_check, ms, f,
                                case["pos_alphas"], case["pos_zs"])
            outputs.append((values, smallest))
        return outputs

    def check(self, cases, outputs):
        problems = []
        for case, out in zip(cases, outputs):
            if out is None:
                continue
            values, smallest = out
            n = len(case["sites"])
            expected = []
            for a in case["alphas"]:
                for b in case["betas"]:
                    u2 = oracle.staged_two_parameter(case["sites"], case["phi1"],
                                                     case["phi2"], a, b)
                    expected.extend(oracle.resolvent(u2, case["phi2"], case["zs"]))
            got = np.array([np.nan if v is None else v for v in values], dtype=complex)
            ok = ~np.isnan(got)
            dev = float(np.max(np.abs(got[ok] - np.asarray(expected)[ok]),
                               initial=0.0))
            if dev > 1e-8:
                _problem(problems, f"knu_alpha_beta N={n}: deviation {dev:.3e} "
                                   "from the staged-matrix resolvent")
            if smallest is not None and not smallest > 0.5:
                _problem(problems, f"herglotz_positivity_check N={n}: "
                                   f"minimum real part {smallest!r} <= 1/2")
        return problems


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def expected_record_count(check: dict) -> int | None:
    """Records a scenario check entry must yield, read from its parameters."""
    n = lambda key: len(check.get(key, []))  # noqa: E731
    kind = check["check"]
    rules = {
        "secular_oracle": lambda: 2 * n("models") * len(check.get("lambdas", [0.5, -0.5])),
        "clark_correspondence": lambda: 2 * n("models"),
        "disintegration_line": lambda: n("models") * n("borel_sets"),
        "disintegration_circle": lambda: n("thetas") * n("borel_sets"),
        "modelspace_suite": lambda: 4 * n("degrees"),
        "lemma7_suite": lambda: 2 * n("thetas") * int(check.get("vector_count", 2)),
        "two_parameter_oracle": lambda: n("families"),
        "positivity_bounds": lambda: n("families") * (1 + n("curves")),
        "curve_disintegration": lambda: n("cases"),
        "simon_wolff": lambda: n("cases"),
        "theorem4_axis": lambda: 2 * n("families"),
        "theorem9_nullset": lambda: n("cases"),
    }
    rule = rules.get(kind)
    return None if rule is None else rule()


class VerifyAll(Workload):
    """The bundled scenarios through run_scenario with one worker.

    The inputs are the scenario files shipped with the package, exactly
    what ``clark-lab verify-all`` runs; the seed does not change them.
    """

    name = "verify-all"
    route = "the five scenarios through run_scenario + report_to_json"
    warmup_scenario = "scalar-smoke"

    def __init__(self, cl):
        self.cl = cl
        self.reference = None  # reports of the first checked pass

    def inputs(self, seed, p):
        folder = Path(self.cl.__file__).parent / "scenarios"
        return [json.loads(path.read_text())
                for path in sorted(folder.glob("*.json"), key=lambda q: q.name)]

    def warmup_inputs(self, seed):
        return [s for s in self.inputs(seed, WARMUP_PASS)
                if s["name"] == self.warmup_scenario]

    def _run_one(self, scenario, workers):
        sc = self.cl.scenarios
        return sc.report_to_json(sc.run_scenario(scenario, workers=workers))

    def _run_all(self, scenarios):
        return [self._run_one(s, 1) for s in scenarios]

    def run(self, scenarios, rec):
        """One op is the whole command: every scenario, one worker."""
        texts = rec.call(True, self._run_all, scenarios)
        return [None] * len(scenarios) if texts is None else texts

    def check(self, scenarios, texts):
        """Every record passes, each scenario yields its record count, and
        every pass reproduces the first pass's reports byte for byte."""
        problems = []
        if self.reference is None:
            self.reference = list(texts)
        for scenario, text, first in zip(scenarios, texts, self.reference):
            if text is None:
                continue
            name = scenario["name"]
            report = json.loads(text)
            want = sum(expected_record_count(c) or 0 for c in scenario["checks"])
            unknown = [c["check"] for c in scenario["checks"]
                       if expected_record_count(c) is None]
            if unknown:
                _problem(problems, f"{name}: no record-count rule for {unknown}")
            records = report["records"]
            if len(records) != want or report["summary"]["total"] != want:
                _problem(problems, f"{name}: {len(records)} records, expected {want}")
            failing = [r["check"] for r in records if r["pass"] is not True]
            if failing or report["summary"]["failed"] != 0:
                _problem(problems, f"{name}: failing records {failing}")
            if first is not None and first != text:
                _problem(problems, f"{name}: report differs from the first pass")
        return problems

    def finish(self, scenarios):
        """The reports are byte-identical between one worker and two."""
        problems = []
        for scenario, first in zip(scenarios, self.reference or []):
            if first is not None and self._run_one(scenario, 2) != first:
                _problem(problems, f"{scenario['name']}: report differs between "
                                   "one and two workers")
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll, SecularLine, ClarkCircle, TwoParameter)}
