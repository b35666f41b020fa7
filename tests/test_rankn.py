import cmath
import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from clarklab import rankn, scenarios
from clarklab.errors import (ConstructionError, CyclicityError, DomainError,
                             ResidueError)
from clarklab.herglotz import BlaschkeProduct, blaschke_eval
from clarklab.measures import (TWO_PI, BorelSetSpec, cauchy_transform_disk,
                               measure_of, total_mass)
from clarklab.rankone import (CyclicOperatorModel, rank_one_unitary_update,
                              unitary_spectral_measure)
from clarklab.rankn import (CYCLIC_TOL, AnalyticCurve, RankNPerturbationFamily,
                            curve_disintegration_check, curve_sample,
                            family_from_json_dict, family_model_space,
                            herglotz_positivity_check,
                            is_cyclic, knu_alpha_beta, phi_density,
                            recursive_unitary, spectral_measure_of_vector,
                            theorem4_axis_criterion, theorem9_nullset_check)
from clarklab.scenarios import (random_blaschke, random_family, random_model,
                                random_orthogonal_unit_vector, run_scenario,
                                _rng)

Z1 = BlaschkeProduct((0j,), 1.0)

BASE = CyclicOperatorModel.from_data("circle", [0.0, math.pi], [0.5, 0.5])
PHI1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
PHI2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
FAMILY2 = RankNPerturbationFamily(BASE, (PHI1, PHI2))


def _moebius(zero: complex, c: complex = 1.0) -> BlaschkeProduct:
    return BlaschkeProduct((complex(zero),), complex(c))


class TestFamily:
    def test_requires_unit_vectors(self):
        with pytest.raises(ConstructionError):
            RankNPerturbationFamily(BASE, (PHI1, 2.0 * PHI2))

    def test_requires_cyclic_vectors(self):
        dead = np.array([1.0, 0.0])
        with pytest.raises(CyclicityError):
            RankNPerturbationFamily(BASE, (PHI1, dead))

    def test_krylov_rank_detects(self):
        u = BASE.dense()
        assert is_cyclic(u, PHI1)
        assert not is_cyclic(u, np.array([1.0, 0.0]))
        # a repeated eigenvalue leaves no vector cyclic
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3))
                            + 1j * np.random.default_rng(4).normal(size=(3, 3)))
        repeated = q @ np.diag([1.0, 1.0, -1.0]) @ q.conj().T
        assert not is_cyclic(repeated, np.ones(3) / math.sqrt(3.0))

    @pytest.mark.parametrize("n, seeds", [(32, (0, 6, 9)), (64, (1, 4, 9))])
    def test_cyclic_vector_accepted_at_scale(self, n, seeds):
        # a Krylov-rank test rejects these cyclic vectors (weights of at
        # least 3e-5, site gaps of at least 4.6e-3)
        for seed in seeds:
            model = random_model(seed, n, "circle")
            assert is_cyclic(model.dense(), model.cyclic_vector())

    def test_verdicts_match_schur_oracle(self):
        # the Schur-basis form of the test on the inputs above
        scipy_linalg = pytest.importorskip("scipy.linalg")

        def schur_verdict(matrix, vector):
            t, q = scipy_linalg.schur(matrix, output="complex")
            angles = np.sort(np.angle(np.diag(t)))
            gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
            components = np.abs(q.conj().T @ vector)
            return bool(np.min(gaps) > 1e-10 and np.min(components)
                        > 1e-10 * np.linalg.norm(vector))

        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3))
                            + 1j * np.random.default_rng(4).normal(size=(3, 3)))
        repeated = q @ np.diag([1.0, 1.0, -1.0]) @ q.conj().T
        cases = [(BASE.dense(), PHI1), (BASE.dense(), np.array([1.0, 0.0])),
                 (repeated, np.ones(3) / math.sqrt(3.0))]
        for n, seeds in ((32, (0, 6, 9)), (64, (1, 4, 9))):
            for seed in seeds:
                model = random_model(seed, n, "circle")
                cases.append((model.dense(), model.cyclic_vector()))
        verdicts = [is_cyclic(m, v) for m, v in cases]
        assert verdicts == [schur_verdict(m, v.astype(complex)) for m, v in cases]
        assert verdicts == [True, False, False] + [True] * 6

    def test_diagonal_verdict_matches_is_cyclic(self):
        # the family reads cyclicity off the base's sites and the vector's
        # components; the verdict is is_cyclic's, also at half and twice
        # CYCLIC_TOL for a site gap (the seam's included) and a component
        def family_verdict(base, v):
            try:
                RankNPerturbationFamily(base, (v,))
            except CyclicityError:
                return False
            return True

        rng = np.random.default_rng(7)
        cases = []
        for seed in range(40):
            n = int(rng.integers(1, 40))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            if seed % 3 == 0 and n > 1:
                v[rng.integers(n)] = 0.0
            cases.append((random_model(seed, n, "circle"),
                          v / np.linalg.norm(v)))
        weights = [0.3, 0.3, 0.4]
        flat = np.ones(3) / math.sqrt(3.0)
        for factor in (0.5, 2.0):
            tiny = factor * CYCLIC_TOL
            for sites in ([1.0, 1.0 + tiny, 3.0], [0.0, 2.0, TWO_PI - tiny]):
                cases.append((CyclicOperatorModel.from_data("circle", sites,
                                                            weights), flat))
            cases.append((CyclicOperatorModel.from_data("circle",
                                                        [0.0, 2.0, 4.0],
                                                        weights),
                          np.array([math.sqrt(1.0 - 2.0 * tiny ** 2),
                                    tiny, tiny])))
        verdicts = [family_verdict(base, v) for base, v in cases]
        assert verdicts == [is_cyclic(base.dense(), v) for base, v in cases]
        assert verdicts[-6:] == [False] * 3 + [True] * 3
        assert verdicts.count(False) > 6

    def test_from_json_dict(self):
        h = math.sqrt(0.5)
        family = family_from_json_dict({
            "base": {"kind": "circle", "sites": [0.0, math.pi],
                     "weights": [0.5, 0.5]},
            "vectors": [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]})
        assert family.base == FAMILY2.base
        assert np.allclose(family.vectors[1], FAMILY2.vectors[1])


class TestRecursion:
    def test_rank_one_base_case(self):
        alpha = cmath.exp(0.9j)
        got = recursive_unitary(RankNPerturbationFamily(BASE, (PHI1,)), [alpha])
        want = rank_one_unitary_update(BASE.dense(), PHI1.astype(complex), alpha)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_identity_parameters(self):
        got = recursive_unitary(FAMILY2, [1.0, 1.0])
        assert np.max(np.abs(got - BASE.dense())) < 1e-14

    def test_stagewise_unitarity(self, rng):
        fam = random_family(_rng(5), 6, 3)
        for _ in range(4):
            alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 3))
            u = recursive_unitary(fam, alphas)
            assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-10

    def test_orthogonal_collapse(self, rng):
        # pairwise orthogonal vectors: the recursion equals the one-shot sum
        # U + sum_k (alpha_k - 1) (., U^{-1} phi_k) phi_k
        fam = random_family(_rng(6), 5, 2)
        u = fam.base.dense()
        for _ in range(6):
            alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 2))
            a = recursive_unitary(fam, alphas)
            b = u + sum((alpha_k - 1.0) * np.outer(phi_k, np.conj(u.conj().T @ phi_k))
                        for alpha_k, phi_k in zip(alphas, fam.vectors))
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_parameter_count_checked(self):
        with pytest.raises(DomainError):
            recursive_unitary(FAMILY2, [1.0])


class TestSpectralMeasureOfVector:
    def test_identity_matrix(self):
        nu = spectral_measure_of_vector(np.eye(3), np.ones(3) / math.sqrt(3.0))
        assert len(nu) == 1
        assert nu.angles[0] == 0.0
        assert nu.masses[0] == pytest.approx(1.0)

    def test_two_point(self):
        nu = spectral_measure_of_vector(np.diag([1.0, -1.0]),
                                        np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert np.asarray(nu.angles) == pytest.approx([0.0, math.pi])
        assert np.asarray(nu.masses) == pytest.approx([0.5, 0.5])

    def test_masses_sum_to_one(self, rng):
        fam = random_family(_rng(7), 6, 2)
        u = recursive_unitary(fam, [1j, -1.0])
        nu = spectral_measure_of_vector(u, fam.vectors[1])
        assert total_mass(nu) == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError):
            spectral_measure_of_vector(np.diag([1.0, 2.0]), np.ones(2))


class TestTwoParameterTransform:
    @pytest.mark.parametrize("n", [1, 3])
    def test_model_space_needs_two_vectors(self, n):
        with pytest.raises(DomainError, match=f"two-vector family, got n = {n}"):
            family_model_space(random_family(_rng(8), 5, n))

    def test_beta_one_reduces(self):
        ms, f = family_model_space(FAMILY2)
        alpha = cmath.exp(0.4j)
        z = 0.3 + 0.2j
        # beta = 1 leaves the first-stage transform unchanged
        w = knu_alpha_beta(ms, f, alpha, 1.0, z)
        assert w == pytest.approx(alpha / (alpha - z * z), abs=1e-10)

    def test_worked_origin_value(self):
        ms, f = family_model_space(FAMILY2)
        assert knu_alpha_beta(ms, f, 1.0, 1j, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_parameters_normalized(self):
        # within the 1e-9 unimodular tolerance the parameters are projected
        # onto the circle, as in knu_alpha
        ms, f = family_model_space(random_family(_rng(8), 5, 2))
        alpha, beta, z = cmath.exp(0.4j), cmath.exp(2.3j), 0.3 + 0.2j
        off = 1.0 + 5e-10
        assert abs(knu_alpha_beta(ms, f, off * alpha, off * beta, z)
                   - knu_alpha_beta(ms, f, alpha, beta, z)) <= 1e-14
        with pytest.raises(DomainError):
            knu_alpha_beta(ms, f, alpha, 1.01 * beta, z)

    def test_against_oracle_grid(self, rng):
        fam = random_family(_rng(8), 5, 2)
        ms, f = family_model_space(fam)
        dev = 0.0
        for _ in range(20):
            alpha = complex(np.exp(2j * np.pi * rng.uniform()))
            beta = complex(np.exp(2j * np.pi * rng.uniform()))
            z = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            u = recursive_unitary(fam, [alpha, beta], check_cyclicity=False)
            nu = spectral_measure_of_vector(u, fam.vectors[1])
            dev = max(dev, abs(cauchy_transform_disk(nu, z)
                               - knu_alpha_beta(ms, f, alpha, beta, z)))
        assert dev <= 1e-8

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_against_staged_oracle_at_scale(self, n):
        # the largest zero of each base inner function has 1 - |z| between
        # 2.7e-3 and 5.2e-6
        for seed in range(3):
            base = random_model(seed, n, "circle")
            phi1 = base.cyclic_vector().astype(complex)
            rng = _rng(seed, n)
            fam = RankNPerturbationFamily(
                base, (phi1, random_orthogonal_unit_vector(rng, phi1)))
            ms, f = family_model_space(fam)
            assert ms.grid.size == 2 * n
            alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 4))
            betas = np.exp(2j * np.pi * rng.uniform(0, 1, 4))
            zs = 0.7 * np.sqrt(rng.uniform(0, 1, 4)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, 4))
            dev = 0.0
            for alpha in alphas:
                for beta in betas:
                    u = recursive_unitary(fam, [alpha, beta])
                    nu = unitary_spectral_measure(u, fam.vectors[1])
                    for z in zs:
                        dev = max(dev, abs(cauchy_transform_disk(nu, z)
                                           - knu_alpha_beta(ms, f, alpha, beta, z)))
            assert dev <= 1e-8, (n, seed, dev)


class TestPreparedTransform:
    def test_one_split_for_many_calls(self, rng, split_calls):
        ms, f = family_model_space(random_family(_rng(8), 5, 2))
        for _ in range(64):
            alpha, beta = np.exp(2j * np.pi * rng.uniform(0, 1, 2))
            z = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            knu_alpha_beta(ms, f, alpha, beta, z)
        assert len(split_calls) == 1
        curve = AnalyticCurve((_moebius(0.3 + 0.2j), _moebius(0.5, -1.0)))
        phi_density(ms, f, curve, 0.2)
        herglotz_positivity_check(ms, f, [1.0, -1.0], [0.1, 0.5j])
        assert len(split_calls) == 1

    def test_failed_split_raises_every_call(self, split_calls):
        ms, f = family_model_space(random_family(_rng(8), 5, 2))
        # weights off by 1% make g and h 1% too large, which the boundary
        # residual check of the split catches
        broken = dataclasses.replace(ms, weights=1.01 * ms.weights)
        for _ in range(3):
            with pytest.raises(ResidueError):
                knu_alpha_beta(broken, f, 1j, -1.0, 0.3)
        with pytest.raises(ResidueError):
            herglotz_positivity_check(broken, f, [1.0], [0.3])
        assert len(split_calls) == 4
        assert broken._contexts == {}

    def test_context_freed_with_space(self):
        ms, f = family_model_space(random_family(_rng(8), 5, 2))
        knu_alpha_beta(ms, f, 1j, -1.0, 0.3)
        ref = weakref.ref(ms)
        del ms
        gc.collect()
        assert ref() is None

    def test_arrays_equal_scalars(self, rng):
        ms, f = family_model_space(random_family(_rng(9), 6, 2))
        zs = 0.95 * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 24))
        alpha, beta = complex(np.exp(0.7j)), complex(np.exp(2.9j))
        batch = knu_alpha_beta(ms, f, alpha, beta, zs)
        scalar = np.array([knu_alpha_beta(ms, f, alpha, beta, z) for z in zs])
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0.0)
        assert isinstance(knu_alpha_beta(ms, f, alpha, beta, zs[0]), complex)

        curve = AnalyticCurve((_moebius(0.3 + 0.2j), _moebius(0.5, -1.0)))
        circle = np.exp(2j * np.pi * rng.uniform(0, 1, 8))
        for points in (zs, circle):
            batch = phi_density(ms, f, curve, points)
            scalar = np.array([phi_density(ms, f, curve, z) for z in points])
            np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0.0)

        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 5))
        smallest = min(herglotz_positivity_check(ms, f, [a], [z])
                       for a in alphas for z in zs)
        assert herglotz_positivity_check(ms, f, alphas, zs) == pytest.approx(
            smallest, rel=1e-14)


class TestCurves:
    def test_diagonal_sample(self):
        curve = AnalyticCurve((Z1, Z1))
        assert curve_sample(curve, 1j) == pytest.approx([1j, 1j])

    def test_power_sample(self):
        curve = AnalyticCurve((Z1, BlaschkeProduct((0j, 0j), 1.0)))
        xi = cmath.exp(1j * math.pi / 3.0)
        assert curve_sample(curve, xi) == pytest.approx(
            [xi, cmath.exp(2j * math.pi / 3.0)])

    def test_nonconstant_components_cover(self, rng):
        curve = AnalyticCurve((_moebius(0.3 + 0.1j), _moebius(-0.2j)))
        samples = np.array([curve_sample(curve, z)
                            for z in np.exp(2j * np.pi * rng.uniform(0, 1, 256))])
        for k in range(2):
            angles = np.sort(np.angle(samples[:, k]) % (2 * np.pi))
            gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
            assert np.max(gaps) < 1.0

    def test_constant_component_rejected(self):
        with pytest.raises(ConstructionError):
            AnalyticCurve((Z1, BlaschkeProduct((), 1.0)))

    def test_array_sample_matches_scalar_calls(self, rng):
        curve = AnalyticCurve((_moebius(0.3 + 0.1j), _moebius(-0.2j, 1j),
                               Z1))
        xis = np.exp(2j * np.pi * rng.uniform(0, 1, (4, 5)))
        got = curve_sample(curve, xis)
        assert got.shape == (4, 5, 3)
        for idx in np.ndindex(xis.shape):
            assert np.array_equal(got[idx], curve_sample(curve, xis[idx]))

    def test_off_torus_component_rejected_in_array(self, monkeypatch):
        curve = AnalyticCurve((Z1, _moebius(0.4)))
        original = rankn.blaschke_eval

        def off_torus(theta, z):
            vals = original(theta, z)
            if theta is curve.components[1]:
                vals[2] *= 1.0 + 1e-8
            return vals

        monkeypatch.setattr(rankn, "blaschke_eval", off_torus)
        with pytest.raises(ConstructionError, match="off the torus"):
            curve_sample(curve, np.exp(1j * np.arange(4.0)))


class TestPhiDensity:
    def test_origin_curve_gives_one(self, rng):
        ms, f = family_model_space(FAMILY2)
        curve = AnalyticCurve((Z1, Z1))
        for _ in range(5):
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert phi_density(ms, f, curve, z) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_bound(self, rng):
        fam = random_family(_rng(9), 4, 2)
        ms, f = family_model_space(fam)
        i2 = _moebius(0.5, -1.0)   # I2(0) = 1/2
        curve = AnalyticCurve((_moebius(0.3 + 0.2j), i2))
        bound = 1.0 / (1.0 - abs(blaschke_eval(i2, 0.0)))
        for _ in range(64):
            z = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(phi_density(ms, f, curve, z)) <= bound + 1e-9

    def test_against_transform_average(self):
        # trapezoid oracle of the xi-averaged transforms at fixed z
        ms, f = family_model_space(FAMILY2)
        curve = AnalyticCurve((Z1, _moebius(0.5, -1.0)))
        for z in (0.0, 0.3 + 0.2j):
            m = 1024
            acc = 0.0 + 0.0j
            for t in 2.0 * np.pi * np.arange(m) / m:
                point = curve_sample(curve, cmath.exp(1j * t))
                u = recursive_unitary(FAMILY2, point, check_cyclicity=False)
                nu = spectral_measure_of_vector(u, PHI2)
                acc += cauchy_transform_disk(nu, z)
            acc /= m
            assert phi_density(ms, f, curve, z) == pytest.approx(acc, abs=1e-6)

    def test_closed_disk_only(self):
        ms, f = family_model_space(FAMILY2)
        curve = AnalyticCurve((Z1, _moebius(0.5, -1.0)))
        with pytest.raises(DomainError, match="closed unit disk"):
            phi_density(ms, f, curve, 1.5)
        with pytest.raises(DomainError):
            phi_density(ms, f, curve, [0.2, 1.5j])
        assert np.isfinite(phi_density(ms, f, curve, cmath.exp(0.3j)))

    def test_mean_value_is_one(self, rng):
        # full-circle average of every family measure has unit mass, so
        # phi(0) = 1 whatever the curve
        fam = random_family(_rng(10), 5, 2)
        ms, f = family_model_space(fam)
        curve = AnalyticCurve((_moebius(0.4 + 0.2j), _moebius(-0.3 + 0.25j)))
        assert phi_density(ms, f, curve, 0.0) == pytest.approx(1.0, abs=1e-10)


def _dense_count(fam, curve, borel, s):
    """Per angle s, the number of atoms of the dense oracle in B."""
    angles, _ = rankn._staged_spectra(
        fam, curve_sample(curve, np.exp(1j * np.asarray(s))), fam.vectors[1])
    return np.count_nonzero(borel.mask(angles), axis=-1)


NONCONSTANT = (random_family(_rng(11), 3, 2),
               AnalyticCurve((_moebius(0.4 + 0.2j), _moebius(-0.3 + 0.25j))),
               BorelSetSpec("circle", ((1.0, 2.5),)))


class TestCurveDisintegration:
    def test_origin_curve_is_arc_length(self):
        curve = AnalyticCurve((Z1, Z1))
        borel = BorelSetSpec("circle", ((0.3, 1.4),))
        res = curve_disintegration_check(FAMILY2, curve, borel, tol=1e-4)
        assert res.density_integral == pytest.approx(1.1 / (2 * math.pi), abs=1e-10)
        assert res.defect <= 1e-4

    @pytest.mark.parametrize("dim", [3, 4])
    def test_stacked_integrand_matches_scalar_route(self, monkeypatch, rng,
                                                    dim):
        integrands = []
        integrate = rankn.integrate_line

        def recording(f, *args, **kwargs):
            integrands.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(rankn, "integrate_line", recording)
        fam = random_family(_rng(20 + dim), dim, 2)
        curve = AnalyticCurve((_moebius(0.4 + 0.2j), _moebius(-0.3 + 0.25j)))
        borel = BorelSetSpec("circle", ((1.0, 2.5), (4.0, 5.0)))
        curve_disintegration_check(fam, curve, borel, tol=1e-2)
        s = rng.uniform(0, 2 * math.pi, 15)
        got = integrands[0](s)
        want = []
        for sk in s:
            u = recursive_unitary(fam, curve_sample(curve, cmath.exp(1j * sk)),
                                  check_cyclicity=False)
            want.append(measure_of(
                unitary_spectral_measure(u, fam.vectors[1]), borel))
        assert got.shape == s.shape
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_corrupted_stage_rejected(self, monkeypatch):
        # the second stage of the stacked construction drifts off unitarity
        original = rankn.rank_one_unitary_update

        def drifting(matrix, vector, alpha):
            out = original(matrix, vector, alpha)
            return out * 1.01 if vector is FAMILY2.vectors[1] else out

        monkeypatch.setattr(rankn, "rank_one_unitary_update", drifting)
        borel = BorelSetSpec("circle", ((0.3, 1.4),))
        with pytest.raises(ConstructionError, match="stage 2 not unitary"):
            curve_disintegration_check(FAMILY2, AnalyticCurve((Z1, Z1)), borel)

    def test_nonconstant_density(self):
        _, _, borel = NONCONSTANT
        res = curve_disintegration_check(*NONCONSTANT, tol=1e-4)
        assert res.defect <= 1e-4
        # density genuinely differs from arc length here
        assert abs(res.density_integral - borel.total_length() / (2 * math.pi)) > 1e-3


class TestEndpointsTogether:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_one_call_equals_one_call_per_endpoint(self, dim):
        # every endpoint in one grid lift and one Newton, each crossing
        # stopping on its own: the same bits as one endpoint per call, an
        # endpoint on a base site adding no hints
        for seed in range(10):
            rng = _rng(seed, dim, 24)
            fam = random_family(rng, dim, 2)
            curve = AnalyticCurve(tuple(
                random_blaschke(rng, int(rng.integers(1, 4)), max_radius=0.9)
                for _ in range(2)))
            ends = list(rng.uniform(0.0, 2 * math.pi, 4)) + [fam.base.sites[0]]
            alone = [rankn._endpoint_crossings(fam, curve, b) for b in ends]
            assert alone[-1].size == 0
            together = rankn._endpoint_crossings(fam, curve, ends)
            assert np.array_equal(together, np.concatenate(alone)), seed

    def test_no_endpoints_no_hints(self):
        fam, curve, _ = NONCONSTANT
        assert rankn._endpoint_crossings(fam, curve, []).size == 0


class TestCurveCrossings:
    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_each_endpoint_crossed_once_per_degree(self, dim):
        # along the curve every eigenvalue crossing of an arc endpoint flips
        # the dense count of atoms in B, and there are d_1 + d_2 of them
        for seed in range(10):
            rng = _rng(seed, dim, 23)
            fam = random_family(rng, dim, 2)
            curve = AnalyticCurve(tuple(
                random_blaschke(rng, int(rng.integers(1, 4)), max_radius=0.9)
                for _ in range(2)))
            start = rng.uniform(0.0, 2 * math.pi)
            borel = BorelSetSpec("circle",
                                 ((start, start + rng.uniform(0.2, 3.0)),))
            degree = sum(c.degree for c in curve.components)
            hints = []
            for b in sorted({x % (2 * math.pi) for x in borel.pieces[0]}):
                crossings = rankn._endpoint_crossings(fam, curve, b)
                assert crossings.size == degree, (seed, b)
                hints += crossings.tolist()
            hints = np.array(hints)
            below = _dense_count(fam, curve, borel, hints - 1e-10)
            above = _dense_count(fam, curve, borel, hints + 1e-10)
            assert np.all(below != above), seed
            assert rankn._curve_breakpoints(fam, curve, borel) == sorted(hints)

    def test_defect_at_rounding_level(self):
        # between the crossings the integrand is smooth, so GK15 meets the
        # density integral far below the check's 1e-4 (bisecting the jumps
        # left up to 9.4e-6 on the bundled cases)
        path = Path(scenarios.__file__).parent / "scenarios" / "rankn.json"
        records = [rec for rec in run_scenario(path, workers=1).records
                   if rec.check == "curve_disintegration"]
        defects = [abs(rec.observed - rec.expected) for rec in records]
        res = curve_disintegration_check(*NONCONSTANT, tol=1e-4)
        defects.append(res.defect)
        assert len(defects) == 4
        assert max(defects) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_endpoint_that_is_an_eigenvalue_at_gamma_one(self, dim):
        # the crossing then sits at s = 0, where rounding can put its target
        # just outside the lift's grid; it must still be found, at 0 or 2 pi
        for seed in range(10):
            rng = _rng(seed, dim, 99)
            fam = random_family(rng, dim, 2)
            curve = AnalyticCurve(tuple(
                random_blaschke(rng, int(rng.integers(1, 4)), max_radius=0.9)
                for _ in range(2)))
            degree = sum(c.degree for c in curve.components)
            start, _ = rankn._staged_spectra(
                fam, curve_sample(curve, np.ones(1)), fam.vectors[1])
            for b in start[0] % (2 * math.pi):
                crossings = rankn._endpoint_crossings(fam, curve, float(b))
                assert crossings.size == degree, (seed, b)
                to_zero = np.minimum(crossings, 2 * math.pi - crossings)
                assert to_zero.min() <= 1e-9, (seed, b)
                borel = BorelSetSpec("circle", ((b, b + 1.0),))
                below = _dense_count(fam, curve, borel, crossings - 1e-10)
                above = _dense_count(fam, curve, borel, crossings + 1e-10)
                assert np.all(below != above), (seed, b)
        res = curve_disintegration_check(fam, curve, borel, tol=1e-4)
        assert res.defect <= 1e-10

    def test_empty_set_has_no_breakpoints(self):
        fam, curve, _ = NONCONSTANT
        empty = BorelSetSpec("circle", ())
        assert rankn._curve_breakpoints(fam, curve, empty) == []
        res = curve_disintegration_check(fam, curve, empty, tol=1e-4)
        assert res.average == 0.0 and res.density_integral == 0.0

    def test_check_holds_without_hints(self, monkeypatch):
        monkeypatch.setattr(rankn, "_endpoint_crossings",
                            lambda *args: np.empty(0))
        assert rankn._curve_breakpoints(*NONCONSTANT) == []
        res = curve_disintegration_check(*NONCONSTANT, tol=1e-4)
        assert res.defect <= 1e-4

    def test_endpoint_on_a_base_site_gives_no_hints(self):
        fam, curve, _ = NONCONSTANT
        site = fam.base.sites[1]
        borel = BorelSetSpec("circle", ((site, site + 1.5),))
        assert rankn._endpoint_crossings(fam, curve, site).size == 0
        assert len(rankn._curve_breakpoints(fam, curve, borel)) == 2
        res = curve_disintegration_check(fam, curve, borel, tol=1e-4)
        assert res.defect <= 1e-4

    def test_hints_match_the_endpoint_wise_newton(self, monkeypatch):
        # the inputs of the two tests above, solved by the shared Newton and
        # by the crossing finder's own earlier rule (a close step taken even
        # outside the bracket, other steps strictly inside, and an endpoint
        # stopping when all its crossings are close)
        cases = []
        for salt, dims in ((23, (2, 3, 8, 32)), (99, (2, 3, 8))):
            for dim in dims:
                for seed in range(10):
                    rng = _rng(seed, dim, salt)
                    fam = random_family(rng, dim, 2)
                    curve = AnalyticCurve(tuple(
                        random_blaschke(rng, int(rng.integers(1, 4)),
                                        max_radius=0.9) for _ in range(2)))
                    if salt == 23:
                        start = rng.uniform(0.0, 2 * math.pi)
                        ends = [start, start + rng.uniform(0.2, 3.0)]
                    else:
                        (ends,), _ = rankn._staged_spectra(
                            fam, curve_sample(curve, np.ones(1)),
                            fam.vectors[1])
                    cases.append((fam, curve, np.remainder(ends, 2 * math.pi)))

        def endpoint_wise(count):
            def newton(fn, x, lo, hi, tol):
                s, lo, hi = (np.array(a, dtype=float).reshape(-1, count)
                             for a in (x, lo, hi))
                todo = np.arange(s.shape[0])
                for _ in range(60):
                    if not todo.size:
                        break
                    s_t = s[todo]
                    idx = (todo[:, None] * count + np.arange(count)).ravel()
                    value, slope = (a.reshape(s_t.shape)
                                    for a in fn(s_t.ravel(), idx))
                    lo_t = lo[todo] = np.where(value < 0.0, s_t, lo[todo])
                    hi_t = hi[todo] = np.where(value > 0.0, s_t, hi[todo])
                    step = s_t - value / slope
                    close = np.abs(step - s_t) <= 1e-12
                    s[todo] = np.where(close | ((step > lo_t) & (step < hi_t)),
                                       step, 0.5 * (lo_t + hi_t))
                    todo = todo[~close.all(axis=1)]
                return s.ravel()
            return newton

        worst = 0.0
        for fam, curve, ends in cases:
            shared = rankn._endpoint_crossings(fam, curve, ends)
            count = sum(c.degree for c in curve.components)
            with monkeypatch.context() as patch:
                patch.setattr(rankn, "_safeguarded_newton",
                              endpoint_wise(count))
                own = rankn._endpoint_crossings(fam, curve, ends)
            assert shared.size == own.size == count * len(ends)
            gap = np.remainder(shared - own + math.pi, 2 * math.pi) - math.pi
            worst = max(worst, np.max(np.abs(gap)))
        assert worst <= 1e-14

    def test_hint_without_a_jump_is_dropped(self, monkeypatch):
        true = rankn._curve_breakpoints(*NONCONSTANT)
        crossings = rankn._endpoint_crossings

        def with_strays(*args):
            found = crossings(*args)
            return np.concatenate([found, found + 0.05])

        monkeypatch.setattr(rankn, "_endpoint_crossings", with_strays)
        assert len(true) == 4
        assert rankn._curve_breakpoints(*NONCONSTANT) == true


class TestPositivity:
    def test_square_value_at_origin(self):
        ms, f = family_model_space(FAMILY2)
        assert herglotz_positivity_check(ms, f, [1.0], [0.0]) == pytest.approx(1.0)

    def test_open_disk_only(self):
        ms, f = family_model_space(FAMILY2)
        for zs in ([1.5], [0.2, 2j], [1.0]):
            with pytest.raises(DomainError, match="unit disk"):
                herglotz_positivity_check(ms, f, [1.0, -1.0], zs)

    def test_grid_minimum(self, rng):
        fam = random_family(_rng(12), 6, 2)
        ms, f = family_model_space(fam)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 64))
        zs = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 64))
        assert herglotz_positivity_check(ms, f, alphas, zs) > 0.5

    def test_boundary_proximity(self, rng):
        fam = random_family(_rng(12), 4, 2)
        ms, f = family_model_space(fam)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        zs = 0.99 * np.exp(2j * np.pi * rng.uniform(0, 1, 32))
        assert herglotz_positivity_check(ms, f, alphas, zs) > 0.5


class TestAtomCountStability:
    def test_every_curve_measure_has_full_atom_count(self, rng):
        # finite-rank shadow of pure point: N atoms, none below mass 1e-12
        fam = random_family(_rng(18), 5, 2)
        curve = AnalyticCurve((_moebius(0.2 + 0.1j), _moebius(-0.15 + 0.2j)))
        for s in rng.uniform(0, 2 * math.pi, 12):
            point = curve_sample(curve, cmath.exp(1j * s))
            u = recursive_unitary(fam, point, check_cyclicity=False)
            nu = spectral_measure_of_vector(u, fam.vectors[1])
            assert len(nu) == 5
            assert min(nu.masses) > 1e-12


class TestAxisCriterion:
    def test_scalar_base(self):
        base = CyclicOperatorModel.from_data("circle", [0.5], [1.0])
        fam = RankNPerturbationFamily(base, (np.array([1.0 + 0j]),))
        out = theorem4_axis_criterion(fam, [1j, -1.0])
        assert all(rec["finite"] for rec in out[0]["records"])

    def test_off_atom_probes_finite(self, rng):
        fam = random_family(_rng(13), 4, 2)
        probes = np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        out = theorem4_axis_criterion(fam, probes)
        assert all(rec["finite"] for rep in out for rec in rep["records"])

    def test_atom_probes_infinite(self):
        fam = random_family(_rng(14), 4, 2)
        probes = [cmath.exp(1j * a) for a in fam.base.sites]
        out = theorem4_axis_criterion(fam, probes)
        assert all(not rec["finite"] for rep in out for rec in rep["records"])


class TestNullsetCheck:
    def test_empty_set_vacuous(self, rng):
        fam = random_family(_rng(15), 4, 2)
        curve = AnalyticCurve((Z1, Z1))
        report = theorem9_nullset_check(fam, curve, [], rng.uniform(0, 6.28, 16))
        assert report["pass"]

    def test_generic_position(self, rng):
        fam = random_family(_rng(16), 4, 2)
        curve = AnalyticCurve((Z1, Z1))
        report = theorem9_nullset_check(fam, curve, [0.0],
                                        rng.uniform(0, 6.28, 64))
        assert report["pass"]

    def test_report_matches_per_point_route(self):
        # null points planted on atoms of the per-point oracle at some xi
        fam = random_family(_rng(19), 4, 2)
        curve = AnalyticCurve((_moebius(0.3 + 0.1j), _moebius(-0.2j)))
        xis = [0.4, 1.7, 2.9, 4.4, 5.8]
        per_point = []
        for s in xis:
            u = recursive_unitary(fam, curve_sample(curve, cmath.exp(1j * s)),
                                  check_cyclicity=False)
            per_point.append(spectral_measure_of_vector(u, fam.vectors[1]))
        null = [per_point[0].angles[1], per_point[3].angles[2], 0.0]
        report = theorem9_nullset_check(fam, curve, null, xis)
        want = [(s, atom, e) for s, nu in zip(xis, per_point)
                for atom in nu.angles for e in null
                if abs(math.remainder(atom - e, 2 * math.pi)) <= 1e-9]
        assert report["checked"] == len(xis) and not report["pass"]
        assert len(report["violations"]) == len(want) >= 2
        for got, (s, atom, e) in zip(report["violations"], want):
            assert got["xi_angle"] == s and got["null_point"] == e
            assert got["atom"] == pytest.approx(atom, abs=1e-14)

    def test_constructed_collision_detected(self):
        fam = random_family(_rng(17), 4, 2)
        curve = AnalyticCurve((Z1, Z1))
        xi0 = 1.2345
        point = curve_sample(curve, cmath.exp(1j * xi0))
        u = recursive_unitary(fam, point, check_cyclicity=False)
        nu = spectral_measure_of_vector(u, fam.vectors[1])
        planted = nu.angles[1]
        report = theorem9_nullset_check(fam, curve, [planted], [xi0, xi0 + 1.0])
        assert not report["pass"]
        assert any(v["xi_angle"] == xi0 for v in report["violations"])
        assert all(v["xi_angle"] != xi0 + 1.0 for v in report["violations"])
