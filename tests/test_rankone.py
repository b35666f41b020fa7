import cmath
import json
import math
from importlib import resources

import numpy as np
import pytest

from clarklab import herglotz, rankone
from clarklab.errors import ConstructionError, DomainError, ResidueError
from clarklab.herglotz import (BlaschkeProduct, blaschke_eval,
                               boundary_derivative_modulus, level_set_batch)
from clarklab.measures import (TWO_PI, BorelSetSpec, CircleAtomicMeasure,
                               LineAtomicMeasure, cauchy_transform_disk,
                               cauchy_transform_line, measure_of, total_mass)
from clarklab.modelspace import build_model_space
from clarklab.rankone import (CyclicOperatorModel, circle_measure_deviation,
                              clark_measure, disintegration_check_circle,
                              disintegration_check_line, inner_from_unitary,
                              matrix_oracle_selfadjoint, matrix_oracle_unitary,
                              model_from_json_dict, model_to_json_dict,
                              perturb_selfadjoint, perturb_unitary,
                              rank_one_unitary_update, simon_wolff_classify,
                              spectral_measure, _unitary_eigenbasis)
from clarklab.scenarios import (CHECKS, DEFAULT_TOLERANCES, _resolve_borel,
                                _resolve_theta, _rng, load_scenario,
                                random_model)

SCALAR_LINE = CyclicOperatorModel.from_data("line", [0.0], [1.0])
TWO_LINE = CyclicOperatorModel.from_data("line", [-1.0, 1.0], [0.5, 0.5])
SCALAR_CIRCLE = CyclicOperatorModel.from_data("circle", [0.0], [1.0])
TWO_CIRCLE = CyclicOperatorModel.from_data("circle", [0.0, math.pi], [0.5, 0.5])
Z1 = BlaschkeProduct((0j,), 1.0)
Z2 = BlaschkeProduct((0j, 0j), 1.0)


class TestModel:
    def test_validation(self):
        with pytest.raises(ConstructionError):
            CyclicOperatorModel.from_data("line", [0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ConstructionError):
            CyclicOperatorModel.from_data("line", [0.0, 1.0], [0.5, 0.6])
        with pytest.raises(ConstructionError):
            CyclicOperatorModel.from_data("ring", [0.0], [1.0])

    @pytest.mark.parametrize("kind", ["line", "circle"])
    @pytest.mark.parametrize("sites, weights", [([math.nan], [1.0]),
                                                ([0.0, 1.0], [0.5, math.nan]),
                                                ([0.0, math.nan], [0.5, 0.5])])
    def test_nan_rejected(self, kind, sites, weights):
        with pytest.raises(ConstructionError):
            CyclicOperatorModel.from_data(kind, sites, weights)

    def test_spectral_measure(self):
        assert spectral_measure(SCALAR_LINE) == LineAtomicMeasure.from_atoms(
            [(0.0, 1.0)])
        mu = spectral_measure(TWO_LINE)
        assert mu.positions == (-1.0, 1.0)
        assert mu.masses == (0.5, 0.5)

    def test_dense_realization_matches(self):
        model = random_model(5, 6, "line")
        oracle = matrix_oracle_selfadjoint(model, 0.0)
        mu = spectral_measure(model)
        assert np.asarray(oracle.positions) == pytest.approx(
            np.asarray(mu.positions), abs=1e-12)
        assert np.asarray(oracle.masses) == pytest.approx(
            np.asarray(mu.masses), abs=1e-12)

    def test_json_round_trip(self):
        back = model_from_json_dict(model_to_json_dict(TWO_LINE))
        assert back == TWO_LINE


class TestPerturbSelfadjoint:
    def test_scalar_shift(self):
        mu = perturb_selfadjoint(SCALAR_LINE, 3.0)
        assert mu.positions == pytest.approx([3.0])
        assert mu.masses == pytest.approx([1.0])

    def test_zero_returns_unperturbed(self):
        assert perturb_selfadjoint(TWO_LINE, 0.0) == spectral_measure(TWO_LINE)

    def test_two_atom_against_oracle(self):
        got = perturb_selfadjoint(TWO_LINE, 3.0)
        want = matrix_oracle_selfadjoint(TWO_LINE, 3.0)
        assert np.asarray(got.positions) == pytest.approx(
            np.asarray(want.positions), abs=1e-12)
        assert np.asarray(got.masses) == pytest.approx(
            np.asarray(want.masses), abs=1e-12)

    def test_mass_conserved(self):
        for lam in (0.1, -5.0, 42.0):
            assert total_mass(perturb_selfadjoint(TWO_LINE, lam)) == pytest.approx(
                1.0, abs=1e-10)

    @pytest.mark.parametrize("lam, n", [
        (lam, n) for lam in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0)
        for n in (2, 8, 32, 192, 256, 512)] + [(1.0, 1024), (-1.0, 1024)])
    def test_oracle_equivalence(self, n, lam):
        # At N=192 the seeds 10**6 + 49 and 10**6 + 111 give node polynomials
        # whose monomial coefficients exceed 1e14 times the leading one, so a
        # coefficient form of the transform cannot represent them.
        seeds = (0,) if n > 512 else (0, 1, 2, 10**6 + 49, 10**6 + 111)
        for seed in seeds:
            model = random_model(seed, n, "line")
            got = perturb_selfadjoint(model, lam)
            want = matrix_oracle_selfadjoint(model, lam)
            assert np.max(np.abs(np.asarray(got.positions)
                                 - np.asarray(want.positions))) \
                < 1e-9 * (1 + abs(lam))
            assert np.max(np.abs(np.asarray(got.masses)
                                 - np.asarray(want.masses))) < 1e-8

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            matrix_oracle_selfadjoint(TWO_LINE, 1.0, max_dimension=1)


UPPER = (1j, 0.5 + 0.2j, -3.0 + 0.01j, 2.0 + 5.0j)
COUPLINGS = (0.1, -0.1, 1.0, -1.0, 10.0, -10.0)


class TestAronszajnKrein:
    """F_lam = F_0 / (1 + lam F_0) for the Cauchy transforms F of the
    spectral measures before and after the rank-one update."""

    def test_scalar_shift(self):
        # F_0 = -1/z perturbs to the transform of a point mass at lam
        for lam in (2.0, -0.7):
            mu = perturb_selfadjoint(SCALAR_LINE, lam)
            for z in (1j, 0.5 + 0.2j):
                assert cauchy_transform_line(mu, z) == pytest.approx(
                    1.0 / (lam - z), rel=1e-13)

    def test_worked_value(self):
        mu = perturb_selfadjoint(SCALAR_LINE, 2.0)
        assert cauchy_transform_line(mu, 1j) == pytest.approx((2 + 1j) / 5)

    def test_pole(self):
        # the poles of F_lam are the zeros of 1 + lam F_0
        model = random_model(17, 6, "line")
        mu0 = spectral_measure(model)
        for lam in (0.5, -3.0):
            for x in perturb_selfadjoint(model, lam).positions:
                assert abs(1.0 + lam * cauchy_transform_line(mu0, x)) <= 1e-13

    @pytest.mark.parametrize("n", [4, 24, 64, 256])
    def test_formula(self, n):
        for seed in range(3):
            model = random_model(seed, n, "line")
            mu0 = spectral_measure(model)
            for lam in COUPLINGS:
                mu = perturb_selfadjoint(model, lam)
                for z in UPPER:
                    f0 = cauchy_transform_line(mu0, z)
                    assert cauchy_transform_line(mu, z) == pytest.approx(
                        f0 / (1.0 + lam * f0), rel=1e-9)

    @pytest.mark.parametrize("n", [8, 64])
    def test_resolvent_against_dense_oracle(self, n):
        # F_lam(z) = (phi, (A + lam phi phi* - z)^{-1} phi) off the real axis
        for seed in range(3):
            model = random_model(seed, n, "line")
            phi = model.cyclic_vector()
            for lam in COUPLINGS:
                a = np.diag(model.sites) + lam * np.outer(phi, phi)
                mu = perturb_selfadjoint(model, lam)
                for z in UPPER:
                    want = phi @ np.linalg.solve(a - z * np.eye(n), phi)
                    assert cauchy_transform_line(mu, z) == pytest.approx(
                        want, rel=1e-9)


class TestInnerFromUnitary:
    def test_scalar_is_identity(self):
        theta = inner_from_unitary(SCALAR_CIRCLE)
        assert theta.degree == 1
        assert theta.zeros == pytest.approx([0j])
        assert blaschke_eval(theta, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_two_atom_is_square(self):
        theta = inner_from_unitary(TWO_CIRCLE)
        assert theta.degree == 2
        assert blaschke_eval(theta, 0.5j) == pytest.approx(-0.25, abs=1e-12)

    def test_vanishes_at_origin(self):
        theta = inner_from_unitary(random_model(9, 6, "circle"))
        assert abs(blaschke_eval(theta, 0.0)) < 1e-10

    def test_defining_identity(self):
        model = random_model(13, 5, "circle")
        theta = inner_from_unitary(model)
        nu = spectral_measure(model)
        for z in (0.2 + 0.3j, -0.6j, 0.55):
            assert cauchy_transform_disk(nu, z) * (
                1.0 - blaschke_eval(theta, z)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 32, 48, 128])
    def test_defining_identity_at_scale(self, n):
        zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32.0)
        for seed in range(3):
            model = random_model(seed, n, "circle")
            theta = inner_from_unitary(model)
            nu = spectral_measure(model)
            k = np.array([cauchy_transform_disk(nu, z) for z in zs])
            assert np.max(np.abs(k * (1.0 - blaschke_eval(theta, zs)) - 1.0)) <= 1e-10

    def test_line_model_rejected(self):
        with pytest.raises(DomainError):
            inner_from_unitary(TWO_LINE)


class TestPerturbUnitary:
    def test_scalar(self):
        alpha = cmath.exp(2.2j)
        nu = perturb_unitary(SCALAR_CIRCLE, alpha)
        assert len(nu) == 1
        assert nu.angles[0] == pytest.approx(2.2)
        assert nu.masses[0] == pytest.approx(1.0)

    def test_two_atom_square_roots(self):
        alpha = cmath.exp(0.8j)
        nu = perturb_unitary(TWO_CIRCLE, alpha)
        assert np.asarray(nu.angles) == pytest.approx([0.4, 0.4 + math.pi])
        assert np.asarray(nu.masses) == pytest.approx([0.5, 0.5])

    def test_alpha_one_returns_base(self):
        assert perturb_unitary(TWO_CIRCLE, 1.0) == spectral_measure(TWO_CIRCLE)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_is_clark_measure_of_model_theta(self, n, rng):
        # Clark: the rank-one unitary family is the Clark family of theta
        for seed in range(2):
            model = random_model(seed, n, "circle")
            theta = inner_from_unitary(model)
            for alpha in np.exp(2j * np.pi * rng.uniform(0.01, 0.99, 4)):
                assert perturb_unitary(model, alpha) == clark_measure(theta, alpha)

    def test_against_dense_oracle(self, rng):
        for seed in (0, 1):
            model = random_model(seed, 7, "circle")
            for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 5)):
                got = perturb_unitary(model, alpha)
                want = matrix_oracle_unitary(model, alpha)
                da, dm = circle_measure_deviation(got, want)
                assert da < 1e-9
                assert dm < 1e-8
                assert total_mass(got) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 32, 48, 64, 128])
    def test_clark_and_perturb_against_dense_oracle(self, n, rng):
        for seed in range(3):
            model = random_model(seed, n, "circle")
            theta = inner_from_unitary(model)
            for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
                want = matrix_oracle_unitary(model, alpha)
                for got in (clark_measure(theta, alpha),
                            perturb_unitary(model, alpha)):
                    da, dm = circle_measure_deviation(got, want)
                    assert da <= 1e-9
                    assert dm <= 1e-8


    def test_inner_function_built_once_per_model(self, monkeypatch):
        calls = []
        original = rankone._blaschke_with_value

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rankone, "_blaschke_with_value", counted)
        model = random_model(7, 8, "circle")
        for alpha in np.exp(2j * np.pi * np.arange(1, 17) / 17.0):
            perturb_unitary(model, alpha)
        assert len(calls) == 1
        # the cached inner function is not part of the model's value
        twin = CyclicOperatorModel.from_data("circle", model.sites, model.weights)
        assert twin == model and hash(twin) == hash(model)
        assert model_to_json_dict(twin) == model_to_json_dict(model)

    def test_model_keeps_its_inner_function(self, monkeypatch):
        builds = []
        original = rankone._blaschke_with_value

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rankone, "_blaschke_with_value", counted)
        model = random_model(5, 4, "circle")
        theta = inner_from_unitary(model)
        assert inner_from_unitary(model) is theta
        perturb_unitary(model, cmath.exp(0.7j))
        assert len(builds) == 1

    @pytest.mark.parametrize("n", [1, 4, 24, 64])
    def test_aronszajn_krein_formula(self, n, rng):
        # unitary twin of Aronszajn-Krein: with K_1 the transform of the
        # base measure, K_alpha = K_1 / ((1 - conj(alpha)) K_1 + conj(alpha))
        zs = 0.8 * np.sqrt(rng.uniform(0, 1, 6)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 6))
        for seed in range(3):
            model = random_model(seed, n, "circle")
            nu1 = spectral_measure(model)
            for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
                nu = perturb_unitary(model, alpha)
                for z in zs:
                    k1 = cauchy_transform_disk(nu1, z)
                    want = k1 / ((1.0 - alpha.conjugate()) * k1
                                 + alpha.conjugate())
                    assert cauchy_transform_disk(nu, z) == pytest.approx(
                        want, rel=1e-9)

    def test_failed_inner_function_stores_nothing(self):
        # sites 1e-13 apart put a zero of theta on the circle
        model = CyclicOperatorModel.from_data("circle", [0.5, 1.0, 1.0 + 1e-13],
                                              [0.4, 0.3, 0.3])
        for _ in range(2):
            with pytest.raises(ConstructionError):
                inner_from_unitary(model)
            assert model._theta is None
        with pytest.raises(ConstructionError):
            perturb_unitary(model, 1j)
        assert model._theta is None


def _check_eigenbasis(u, lam, q, tol=1e-12):
    n = u.shape[0]
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= tol
    assert np.max(np.abs(q @ np.diag(lam) @ q.conj().T - u)) <= tol


def _same_points(a, b, tol=1e-12):
    """Every point of a within tol of a point of b, and the other way."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return np.max(np.min(dist, axis=0)) <= tol and np.max(np.min(dist, axis=1)) <= tol


class TestUnitaryEigenbasis:
    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_reconstructs_perturbed_models(self, n):
        for seed in range(2):
            model = random_model(seed, n, "circle")
            u = rank_one_unitary_update(model.dense(), model.cyclic_vector(),
                                        cmath.exp(0.7j))
            lam, q = _unitary_eigenbasis(u)
            _check_eigenbasis(u, lam, q)

    def _conjugated(self, eigenvalues, seed=0):
        n = len(eigenvalues)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q @ np.diag(eigenvalues) @ q.conj().T

    def test_close_eigenvalues(self):
        ev = np.exp(1j * np.array([0.3, 0.3 + 1e-9, 1.7, 2.9, 4.0, 5.5]))
        u = self._conjugated(ev)
        lam, q = _unitary_eigenbasis(u)
        _check_eigenbasis(u, lam, q)
        assert _same_points(lam, ev)

    def test_eigenvalues_at_plus_and_minus_one(self):
        ev = np.array([1.0, -1.0, 1j, -1j, cmath.exp(1e-9j), -cmath.exp(1e-9j)])
        u = self._conjugated(ev, seed=1)
        lam, q = _unitary_eigenbasis(u)
        _check_eigenbasis(u, lam, q)
        assert _same_points(lam, ev)
        _check_eigenbasis(np.diag(ev), *_unitary_eigenbasis(np.diag(ev)))

    def test_masses_match_schur_oracle(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        model = random_model(3, 128, "circle")
        v = model.cyclic_vector().astype(complex)
        u = rank_one_unitary_update(model.dense(), v, cmath.exp(2.2j))
        lam, q = _unitary_eigenbasis(u)
        t, qs = scipy_linalg.schur(u, output="complex")
        order = np.argsort(np.angle(lam))
        order_s = np.argsort(np.angle(np.diag(t)))
        assert np.angle(lam[order]) == pytest.approx(
            np.angle(np.diag(t)[order_s]), abs=1e-12)
        assert (np.abs(q.conj().T @ v) ** 2)[order] == pytest.approx(
            (np.abs(qs.conj().T @ v) ** 2)[order_s], abs=1e-12)


class TestClarkMeasure:
    def test_identity_inner(self):
        alpha = cmath.exp(1.3j)
        mu = clark_measure(Z1, alpha)
        assert len(mu) == 1
        assert mu.angles[0] == pytest.approx(1.3)
        assert mu.masses[0] == pytest.approx(1.0)

    def test_square_at_one(self):
        mu = clark_measure(Z2, 1.0)
        assert np.asarray(mu.angles) == pytest.approx([0.0, math.pi])
        assert np.asarray(mu.masses) == pytest.approx([0.5, 0.5])

    def test_square_at_i(self):
        mu = clark_measure(Z2, 1j)
        assert np.asarray(mu.angles) == pytest.approx(
            [math.pi / 4, 5 * math.pi / 4])
        assert np.asarray(mu.masses) == pytest.approx([0.5, 0.5])

    def test_poisson_contract(self, rng):
        zeros = 0.7 * np.sqrt(rng.uniform(0, 1, 5)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 5))
        theta = BlaschkeProduct(tuple(zeros), cmath.exp(0.9j))
        alpha = cmath.exp(2.7j)
        mu = clark_measure(theta, alpha)
        xi, m = mu.points(), np.asarray(mu.masses)
        for _ in range(20):
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(
                2j * math.pi * rng.uniform())
            want = ((alpha + blaschke_eval(theta, z))
                    / (alpha - blaschke_eval(theta, z))).real
            poisson = np.sum(m * (1.0 - abs(z) ** 2) / np.abs(xi - z) ** 2)
            assert poisson == pytest.approx(want, abs=1e-9)

    def test_point_mass_criterion(self, rng):
        theta = BlaschkeProduct(tuple(0.5 * np.exp(2j * np.pi
                                                   * rng.uniform(0, 1, 6))), 1.0)
        alpha = cmath.exp(0.4j)
        mu = clark_measure(theta, alpha)
        pts = mu.points()
        assert np.max(np.abs(blaschke_eval(theta, pts) - alpha)) <= 1e-9
        assert np.all(np.isfinite(boundary_derivative_modulus(theta, pts)))


    @pytest.mark.parametrize("alpha", [math.nan, complex(math.nan, 1.0),
                                       complex(0.0, math.inf)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(DomainError):
            clark_measure(Z2, alpha)

    def test_total_mass_formula(self, rng):
        # total mass Re((alpha + theta(0)) / (alpha - theta(0)))
        theta = BlaschkeProduct((0.5 + 0j, -0.2 + 0.1j), cmath.exp(0.3j))
        t0 = blaschke_eval(theta, 0.0)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 6)):
            assert total_mass(clark_measure(theta, alpha)) == pytest.approx(
                ((alpha + t0) / (alpha - t0)).real, abs=1e-10)

    def test_unit_mass_when_origin_zero(self, rng):
        theta = inner_from_unitary(random_model(3, 4, "circle"))
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
            assert total_mass(clark_measure(theta, alpha)) == pytest.approx(
                1.0, abs=1e-10)

    def test_support_disjointness(self, rng):
        zeros = 0.6 * np.sqrt(rng.uniform(0, 1, 32)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 32))
        theta = BlaschkeProduct(tuple(zeros), 1.0)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 5))
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                if abs(alphas[i] - alphas[j]) <= 1e-3:
                    continue
                a = clark_measure(theta, alphas[i]).points()
                b = clark_measure(theta, alphas[j]).points()
                assert np.min(np.abs(a[:, None] - b[None, :])) > 1e-9


def _circle_image(model):
    """The circle model of U = (A - i)(A + i)^{-1} and the unit vector
    along (A + i)^{-1} phi, for the line model (A, phi); the vector is
    taken up to the phase of each coordinate."""
    t, w = np.asarray(model.sites), np.asarray(model.weights)
    v = w / (1.0 + t * t)
    return CyclicOperatorModel.from_data(
        "circle", np.angle((t - 1j) / (t + 1j)) % TWO_PI, v / math.fsum(v))


def _circle_alpha(model, lam):
    """The unitary parameter that the Cayley map gives coupling lam:
    (1 + lam F(i)) / (1 + lam conj F(i)) for the transform F of the
    model's spectral measure."""
    f = cauchy_transform_line(spectral_measure(model), 1j)
    return (1.0 + lam * f) / (1.0 + lam * f.conjugate())


def _line_points(xi):
    """x = i (1 + xi)/(1 - xi) = -cot(s/2) for xi = e^{is}, sorted."""
    return np.sort(-1.0 / np.tan(np.angle(xi) / 2.0))


class TestSelfadjointThroughCayley:
    """The paper's Example 2: the Cayley map carries the self-adjoint
    rank-one family onto a unitary one, so the perturbed spectra of a line
    model are level sets of the inner function of its circle image."""

    def test_cayley_carries_the_family(self):
        model = random_model(1, 6, "line")
        a, phi, eye = np.diag(model.sites), model.cyclic_vector(), np.eye(6)

        def cayley(b):
            return (b - 1j * eye) @ np.linalg.inv(b + 1j * eye)

        circle = _circle_image(model)
        psi = np.linalg.solve(a + 1j * eye, phi)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(cayley(a) - circle.dense())) <= 1e-14
        assert np.abs(psi) ** 2 == pytest.approx(circle.weights, abs=1e-15)
        for lam in (0.3, -2.0, 10.0):
            alpha = _circle_alpha(model, lam)
            assert abs(abs(alpha) - 1.0) <= 1e-14
            got = rank_one_unitary_update(circle.dense(), psi, alpha)
            want = cayley(a + lam * np.outer(phi, phi))
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_level_set_matches_secular_root(self):
        theta = inner_from_unitary(_circle_image(SCALAR_LINE))
        pts = level_set_batch(theta, _circle_alpha(SCALAR_LINE, 3.0))[0]
        assert _line_points(pts) == pytest.approx([3.0], abs=1e-9)

    def test_level_sets_match_perturbed_atoms(self):
        model = random_model(21, 4, "line")
        theta = inner_from_unitary(_circle_image(model))
        for lam in (0.7, -2.5):
            atoms = perturb_selfadjoint(model, lam).positions
            pts = level_set_batch(theta, _circle_alpha(model, lam))[0]
            assert _line_points(pts) == pytest.approx(np.asarray(atoms),
                                                      abs=1e-8)

    @pytest.mark.parametrize("n", [8, 24, 64, 128])
    def test_level_set_against_dense_oracle(self, n):
        for seed in range(3):
            model = random_model(seed, n, "line")
            theta = inner_from_unitary(_circle_image(model))
            phi = model.cyclic_vector()
            rows = level_set_batch(theta, [_circle_alpha(model, lam)
                                           for lam in COUPLINGS])
            for lam, pts in zip(COUPLINGS, rows):
                x = np.linalg.eigvalsh(np.diag(model.sites)
                                       + lam * np.outer(phi, phi))
                assert np.all(np.abs(_line_points(pts) - x)
                              <= 1e-8 * (1.0 + np.abs(x)))

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_clark_masses_match_perturbed_masses(self, n):
        # Clark mass at the image of x: |1 + lam F(i)|^2 mu_lam{x} /
        # ((1 + x^2) Im F(i))
        for seed in range(3):
            model = random_model(seed, n, "line")
            theta = inner_from_unitary(_circle_image(model))
            f = cauchy_transform_line(spectral_measure(model), 1j)
            for lam in COUPLINGS:
                nu = clark_measure(theta, _circle_alpha(model, lam))
                mu = perturb_selfadjoint(model, lam)
                x, m = np.asarray(mu.positions), np.asarray(mu.masses)
                want = abs(1.0 + lam * f) ** 2 * m / ((1.0 + x * x) * f.imag)
                order = np.argsort(-1.0 / np.tan(np.asarray(nu.angles) / 2.0))
                assert np.asarray(nu.masses)[order] == pytest.approx(
                    want, abs=1e-10)


class TestCorrespondence:
    """Clark family vs. unitary perturbation vs. dense oracle, through the
    scenario check that verify-all runs."""

    @staticmethod
    def _records(model, alpha_count):
        spec = {"models": [model_to_json_dict(model)], "alpha_count": alpha_count}
        records = CHECKS["clark_correspondence"](7, 0, spec, DEFAULT_TOLERANCES)
        return {rec.check: rec for rec in records}

    def test_scalar(self):
        recs = self._records(SCALAR_CIRCLE, 1)
        assert all(rec.passed for rec in recs.values())
        assert recs["clark_correspondence.atoms"].observed < 1e-12

    def test_two_atom_random_alphas(self):
        recs = self._records(TWO_CIRCLE, 16)
        assert all(rec.passed for rec in recs.values())
        assert recs["clark_correspondence.atoms"].observed < 1e-9

    def test_mass_sums(self, rng):
        model = random_model(31, 16, "circle")
        recs = self._records(model, 8)
        assert all(rec.passed for rec in recs.values())
        theta = inner_from_unitary(model)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 8)):
            for mu in (clark_measure(theta, alpha), perturb_unitary(model, alpha),
                       matrix_oracle_unitary(model, alpha)):
                assert total_mass(mu) == pytest.approx(1.0, abs=1e-9)


def _deviation_by_loop(a, b):
    """The shift-by-shift scan: the first shift of strictly smallest
    angular deviation wins."""
    pa, ma = np.asarray(a.angles), np.asarray(a.masses)
    pb, mb = np.asarray(b.angles), np.asarray(b.masses)
    best = (math.inf, math.inf)
    for shift in range(len(a)):
        da = np.abs(np.angle(np.exp(1j * (np.roll(pb, -shift) - pa)))).max()
        if da < best[0]:
            best = (float(da), float(np.abs(np.roll(mb, -shift) - ma).max()))
    return best


class TestMeasureDeviation:
    def test_matches_shift_loop(self, rng):
        for n in (1, 2, 5, 16):
            for _ in range(5):
                a, b = (CircleAtomicMeasure.from_atoms(
                    zip(rng.uniform(0.0, TWO_PI, n), rng.uniform(0.1, 1.0, n)))
                    for _ in range(2))
                assert circle_measure_deviation(a, b) == _deviation_by_loop(a, b)

    def test_tie_takes_first_shift(self):
        # b is a turned by pi/4: shifts 0 and 3 both miss by pi/4 in angle,
        # and their mass deviations differ; the first shift is kept
        angles = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
        a = CircleAtomicMeasure(tuple(angles), (1.0, 2.0, 3.0, 4.0))
        b = CircleAtomicMeasure(tuple(t + 0.25 * math.pi for t in angles),
                                (1.5, 2.0, 3.0, 4.0))
        da, dm = circle_measure_deviation(a, b)
        assert da == pytest.approx(0.25 * math.pi, abs=1e-15)
        assert dm == 0.5
        assert (da, dm) == _deviation_by_loop(a, b)

    def test_seam_shift(self):
        # one atom just below 2 pi in b sorts last instead of first
        a = CircleAtomicMeasure((0.0, 2.0), (0.25, 0.75))
        b = CircleAtomicMeasure((2.0, TWO_PI - 1e-12), (0.75, 0.25))
        da, dm = circle_measure_deviation(a, b)
        assert da < 1e-11 and dm == 0.0

    def test_size_mismatch(self):
        a = CircleAtomicMeasure((0.0,), (1.0,))
        b = CircleAtomicMeasure((0.0, 1.0), (0.5, 0.5))
        assert circle_measure_deviation(a, b) == (math.inf, math.inf)


class TestDisintegrationLine:
    def test_scalar_exact(self):
        res = disintegration_check_line(SCALAR_LINE,
                                        BorelSetSpec("line", ((0.0, 1.0),)),
                                        window=50.0)
        assert res.estimate == pytest.approx(1.0, abs=1e-10)

    def test_two_atom(self):
        res = disintegration_check_line(TWO_LINE,
                                        BorelSetSpec("line", ((-0.5, 0.5),)),
                                        window=100.0, tol=1e-3)
        assert res.defect <= 1e-3
        assert res.expected == 1.0

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_batched_integrand_matches_scalar_route(self, monkeypatch, n):
        integrands = []
        integrate = rankone.integrate_line

        def recording(f, *args, **kwargs):
            integrands.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(rankone, "integrate_line", recording)
        model = random_model(40 + n, n, "line")
        borel = BorelSetSpec("line", ((-0.6, -0.1), (0.2, 0.9)))
        disintegration_check_line(model, borel, window=30.0, tol=1e-2)
        rng = np.random.default_rng(n)
        lams = np.concatenate([-np.logspace(-3, 2, 15), np.logspace(-3, 2, 15)])
        lams *= rng.uniform(0.9, 1.1, lams.size)
        got = integrands[0](lams)
        want = [measure_of(perturb_selfadjoint(model, lam), borel)
                for lam in lams]
        assert got.shape == lams.shape
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_additive_over_disjoint_pieces(self):
        b1 = BorelSetSpec("line", ((-0.5, 0.0),))
        b2 = BorelSetSpec("line", ((0.25, 0.5),))
        both = BorelSetSpec("line", ((-0.5, 0.0), (0.25, 0.5)))
        r1 = disintegration_check_line(TWO_LINE, b1, window=60.0)
        r2 = disintegration_check_line(TWO_LINE, b2, window=60.0)
        r12 = disintegration_check_line(TWO_LINE, both, window=60.0)
        assert r12.estimate == pytest.approx(r1.estimate + r2.estimate, abs=2e-3)


class TestDisintegrationCircle:
    def test_identity_inner_exact(self):
        arc = BorelSetSpec("circle", ((0.7, 0.7 + math.pi / 2),))
        res = disintegration_check_circle(Z1, arc)
        assert res.defect < 1e-10

    def test_square_quarter_arc(self):
        arc = BorelSetSpec("circle", ((0.3, 0.3 + math.pi / 2),))
        res = disintegration_check_circle(Z2, arc, tol=1e-6)
        assert res.expected == pytest.approx(0.25)
        assert res.defect <= 1e-6

    def test_full_circle(self):
        full = BorelSetSpec("circle", ((0.0, 2.0 * math.pi),))
        res = disintegration_check_circle(Z2, full, tol=1e-6)
        assert res.estimate == pytest.approx(1.0, abs=1e-6)

    def test_bundled_thetas_to_rounding(self):
        # the thetas and arcs of the bundled disintegration scenario: the
        # jumps of alpha -> mu_alpha(B) are panel ends, so the quadrature
        # is exact on every smooth piece up to rounding
        scenario = load_scenario(json.loads(
            (resources.files("clarklab") / "scenarios"
             / "disintegration.json").read_text()))
        idx, spec = next((k, c) for k, c in enumerate(scenario.checks)
                         if c["check"] == "disintegration_circle")
        for i, tspec in enumerate(spec["thetas"]):
            theta, _ = _resolve_theta(tspec, _rng(scenario.seed, idx, i),
                                      f"checks[{idx}].thetas[{i}]")
            for j, bspec in enumerate(spec["borel_sets"]):
                res = disintegration_check_circle(
                    theta, _resolve_borel(bspec, f"checks[{idx}].borel_sets[{j}]"),
                    tol=spec["tol"])
                assert res.defect <= 1e-12


class TestSimonWolffClassify:
    def test_scalar(self):
        mu = LineAtomicMeasure.from_atoms([(0.0, 1.0)])
        out = simon_wolff_classify(mu, [0.0, 1.0])
        assert out[0]["finite"] is False
        assert out[1]["finite"] is True
        assert out[1]["value"] == pytest.approx(1.0)

    def test_all_atoms_infinite(self):
        mu = spectral_measure(random_model(2, 5, "line"))
        out = simon_wolff_classify(mu, mu.positions)
        assert all(not rec["finite"] for rec in out)


class TestOneHomePerObject:
    """The model keeps its spectral measure, perturb_selfadjoint is one row
    of the batched line kernel, and every Clark mass comes from
    herglotz._clark_atoms."""

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_model_keeps_its_measure(self, kind):
        model = random_model(3, 8, kind)
        mu = spectral_measure(model)
        assert spectral_measure(model) is mu
        cls = LineAtomicMeasure if kind == "line" else CircleAtomicMeasure
        assert mu == cls.from_atoms(zip(model.sites, model.weights))

    @pytest.mark.parametrize("kind, sites, weights", [
        ("line", (1.0, 0.0), (0.5, 0.5)),
        ("line", (0.0, 1.0), (1.5, -0.5)),
        ("line", (0.0, math.inf), (0.5, 0.5)),
        ("circle", (0.0, TWO_PI), (0.5, 0.5)),
        ("circle", (-0.1, 1.0), (0.5, 0.5)),
    ])
    def test_measure_checks_the_model(self, kind, sites, weights):
        with pytest.raises(ConstructionError):
            CyclicOperatorModel(kind, sites, weights)

    def test_perturb_selfadjoint_builds_one_measure(self, monkeypatch):
        model = random_model(0, 8, "line")
        calls = []
        build = LineAtomicMeasure.from_atoms.__func__

        def counted(cls, atoms):
            calls.append(cls)
            return build(cls, atoms)

        monkeypatch.setattr(LineAtomicMeasure, "from_atoms",
                            classmethod(counted))
        perturb_selfadjoint(model, 0.5)
        perturb_selfadjoint(model, -2.0)
        assert len(calls) == 2

    def test_near_duplicate_sites_keep_every_atom(self):
        # sites 1e-13 apart sit inside the merge tolerance of from_atoms;
        # the model's measure keeps both, as the dense oracle does
        model = CyclicOperatorModel.from_data("line", [0.0, 1.0, 1.0 + 1e-13],
                                              [0.4, 0.3, 0.3])
        got = perturb_selfadjoint(model, 0.5)
        want = matrix_oracle_selfadjoint(model, 0.5)
        assert len(got) == len(want) == 3
        assert np.allclose(got.positions, want.positions, rtol=0, atol=1e-12)
        assert np.allclose(got.masses, want.masses, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_perturb_selfadjoint_is_the_secular_route(self, n):
        for seed in range(10):
            model = random_model(seed, n, "line")
            mu0 = spectral_measure(model)
            for lam in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
                roots = herglotz.secular_roots_line(mu0, lam)
                masses = herglotz.residue_masses_line(mu0, lam, roots)
                assert perturb_selfadjoint(model, lam) == \
                    LineAtomicMeasure.from_atoms(zip(roots, masses))

    @pytest.mark.parametrize("route", ["clark_measure", "disintegration_circle",
                                       "build_model_space"])
    def test_vanishing_derivative_raises_everywhere(self, monkeypatch, route):
        theta = BlaschkeProduct((0j, 0.5 + 0.2j, -0.3j))
        arc = BorelSetSpec("circle", ((0.5, 2.0),))
        calls = {
            "clark_measure": lambda: clark_measure(theta, 1j),
            "disintegration_circle":
                lambda: disintegration_check_circle(theta, arc),
            "build_model_space": lambda: build_model_space(theta),
        }
        calls[route]()
        monkeypatch.setattr(herglotz, "boundary_derivative_modulus",
                            lambda theta, xi: np.zeros(np.shape(xi)))
        with pytest.raises(ResidueError, match="vanishing angular derivative"):
            calls[route]()


class TestBatchedOracles:
    """Each batched dense oracle equals its one-row wrapper bit for bit, row
    by row, and keeps the wrapper's checks for every row of the stack."""

    LAMS = (-10.0, -0.5, 0.0, 0.5, 3.0)

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    def test_selfadjoint_rows_equal_one_row_calls(self, n):
        model = random_model(n + 1, n, "line")
        evals, masses = rankone._selfadjoint_oracle(model, self.LAMS)
        assert evals.shape == masses.shape == (len(self.LAMS), n)
        for lam, row, mrow in zip(self.LAMS, evals, masses):
            (one,), (one_m,) = rankone._selfadjoint_oracle(model, [lam])
            assert np.array_equal(row, one) and np.array_equal(mrow, one_m)
            assert matrix_oracle_selfadjoint(model, lam) == \
                LineAtomicMeasure.from_atoms(zip(row, mrow))

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    def test_unitary_rows_equal_one_row_calls(self, n):
        model = random_model(n + 2, n, "circle")
        alphas = np.exp(1j * _rng(n).uniform(0.0, TWO_PI, 5))
        angles, masses = rankone._unitary_oracle(model, alphas)
        assert angles.shape == masses.shape == (alphas.size, n)
        v = model.cyclic_vector().astype(complex)
        stack = rank_one_unitary_update(model.dense(), v, alphas)
        spectra = rankone._unitary_spectra(stack, v)
        for k, alpha in enumerate(alphas):
            (one,), (one_m,) = rankone._unitary_oracle(model, [alpha])
            assert np.array_equal(angles[k], one)
            assert np.array_equal(masses[k], one_m)
            assert np.array_equal(spectra[0][k], one)
            assert np.array_equal(spectra[1][k], one_m)
            want = CircleAtomicMeasure.from_atoms(zip(one, one_m))
            assert matrix_oracle_unitary(model, alpha) == want
            assert rankone.unitary_spectral_measure(stack[k], v) == want

    def test_non_unitary_row_rejected(self):
        model = random_model(4, 8, "circle")
        v = model.cyclic_vector().astype(complex)
        stack = rank_one_unitary_update(model.dense(), v,
                                        np.exp(1j * np.arange(4.0)))
        stack[2] *= 1.01
        rankone._unitary_spectra(stack[:2], v)
        with pytest.raises(DomainError, match="matrix 2 of the stack"):
            rankone._unitary_spectra(stack, v)
        with pytest.raises(DomainError, match="not unitary"):
            rankone.unitary_spectral_measure(stack[2], v)

    def test_oracles_keep_their_guards(self):
        line, circle = random_model(5, 6, "line"), random_model(5, 6, "circle")
        with pytest.raises(DomainError, match="exceeds 4"):
            rankone._selfadjoint_oracle(line, self.LAMS, max_dimension=4)
        with pytest.raises(DomainError):
            rankone._selfadjoint_oracle(circle, self.LAMS)
        with pytest.raises(DomainError):
            rankone._unitary_oracle(line, [1j])

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_perturbed_rows_match_one_row_calls(self, n):
        # the route's rows come from one batched secular solve, which may
        # sum K in another order than one row alone; a zero coupling keeps
        # the unperturbed measure itself
        model = random_model(n + 3, n, "line")
        got = rankone._perturbed_selfadjoint(model, self.LAMS)
        assert got[self.LAMS.index(0.0)] is spectral_measure(model)
        for lam, mu in zip(self.LAMS, got):
            want = perturb_selfadjoint(model, lam)
            np.testing.assert_allclose(mu.positions, want.positions,
                                       rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(mu.masses, want.masses, rtol=1e-12)
        with pytest.raises(DomainError):
            rankone._perturbed_selfadjoint(random_model(1, n, "circle"), [0.5])
