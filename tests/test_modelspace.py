import cmath
import math

import numpy as np
import pytest

from clarklab import herglotz, modelspace
from clarklab.errors import ConstructionError, DomainError
from clarklab.herglotz import (BlaschkeProduct, blaschke_eval,
                               boundary_derivative_modulus, level_set_batch)
from clarklab.measures import (CircleAtomicMeasure, _require_unimodular,
                               cauchy_transform_disk)
from clarklab.modelspace import (build_model_space,
                                 hat_conjugate, intertwine_check, knu_alpha,
                                 lemma7_decompose, t_alpha_matrix,
                                 theta_fingerprint, tm_basis_values, v_alpha,
                                 v_alpha_star)
from clarklab.rankone import clark_measure, inner_from_unitary
from clarklab.scenarios import random_blaschke, random_model, _rng

Z1 = BlaschkeProduct((0j,), 1.0)
Z2 = BlaschkeProduct((0j, 0j), 1.0)
Z3 = BlaschkeProduct((0j, 0j, 0j), 1.0)


def _random_theta(seed, degree):
    return random_blaschke(_rng(seed), degree, zero_at_origin=True)


def _rebuilt_clark_unitary(theta, alpha):
    """W(alpha) = A + B C / (alpha - D) with theta's unitary realization
    rebuilt from its zeros, as every call once did: the reference that the
    realization kept on theta must reproduce bit for bit."""
    n = theta.degree
    a_mat = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    c = np.zeros(n, dtype=complex)
    d = 1.0 + 0.0j
    for k, ak in enumerate(theta.zeros):
        sk = math.sqrt(1.0 - abs(ak) ** 2)
        a_mat[k, :k] = sk * c[:k]
        a_mat[k, k] = ak.conjugate()
        b[k] = sk * d
        c[:k] *= -ak
        c[k] = sk
        d *= -ak
    return (a_mat + np.outer(b, theta.c * c)
            / (np.atleast_1d(alpha) - theta.c * d)[:, None, None])[0]


# Independent oracle for the H^2 inner product: a boundary mean over a
# uniform grid, spectrally exact for the low-degree, well-inside zeros used.
ORACLE_POINTS = 4096
ORACLE_GRID = np.exp(2j * np.pi * np.arange(ORACLE_POINTS) / ORACLE_POINTS)


def _oracle_gram(theta):
    basis = tm_basis_values(theta.zeros, ORACLE_GRID)
    return basis @ basis.conj().T / ORACLE_POINTS


class TestBasis:
    def test_monomials_for_powers(self, rng):
        # theta = z^N has the monomial basis {1, z, ..., z^{N-1}}
        for theta, n in ((Z1, 1), (Z2, 2), (Z3, 3)):
            ms = build_model_space(theta)
            z = 0.7 * np.exp(2j * np.pi * rng.uniform(0, 1, 8))
            vals = tm_basis_values(theta.zeros, z)
            for k in range(n):
                assert vals[k] == pytest.approx(z ** k)

    def test_matches_product_loop(self, rng):
        # the running products of one pass against the zero-by-zero loop;
        # only the order of the rounding differs
        theta = BlaschkeProduct(tuple(_random_theta(5, 7).zeros) + (0.3 + 0.4j,) * 2,
                                cmath.exp(0.4j))
        z = 0.98 * np.sqrt(rng.uniform(0, 1, (3, 5))) * np.exp(
            2j * np.pi * rng.uniform(0, 1, (3, 5)))
        expected = np.empty((theta.degree,) + z.shape, dtype=complex)
        carry = np.ones(z.shape, dtype=complex)
        for k, zk in enumerate(theta.zeros):
            den = 1.0 - np.conj(zk) * z
            expected[k] = math.sqrt(1.0 - abs(zk) ** 2) / den * carry
            carry = carry * (z - zk) / den
        basis, running = modelspace._tm_pass(theta.zeros, z)
        np.testing.assert_allclose(basis, expected, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(theta.c * running[-1], blaschke_eval(theta, z),
                                   rtol=1e-13, atol=0.0)
        assert np.array_equal(tm_basis_values(theta.zeros, z), basis)

    def test_gram_identity(self):
        theta = BlaschkeProduct((0j, 0.5 + 0j), 1.0)
        assert np.max(np.abs(_oracle_gram(theta) - np.eye(2))) < 1e-10
        ms = build_model_space(theta)
        assert ms.grid.size == 2 * theta.degree
        gram = (ms.basis * ms.weights) @ ms.basis.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_orthogonal_to_shifted_range(self):
        # every basis element is orthogonal to theta * p for low-degree p;
        # theta * z^k is not in the model space of theta^2, so the check is
        # a uniform-grid mean and not the model space's own projection
        theta = _random_theta(4, 5)
        basis = tm_basis_values(theta.zeros, ORACLE_GRID)
        theta_values = blaschke_eval(theta, ORACLE_GRID)
        for k in range(5):
            shifted = theta_values * ORACLE_GRID ** k
            coeffs = basis.conj() @ shifted / ORACLE_POINTS
            assert np.max(np.abs(coeffs)) < 1e-10

    def test_degenerate_zero_confluence(self):
        # repeated interior zero: confluent basis still orthonormal
        theta = BlaschkeProduct((0.4 + 0.1j, 0.4 + 0.1j, 0j), 1.0)
        assert np.max(np.abs(_oracle_gram(theta) - np.eye(3))) < 1e-10
        build_model_space(theta)  # its own weighted Gram check passes

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            build_model_space(BlaschkeProduct((), 1.0))


class TestClarkQuadratureAtScale:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_inner_functions_of_random_models(self, n):
        # the largest zero of each inner function has 1 - |z| between
        # 2.7e-3 and 2.4e-6
        for seed in range(3):
            theta = inner_from_unitary(random_model(seed, n, "circle"))
            ms = build_model_space(theta)
            assert ms.grid.size == 2 * n
            rng = _rng(seed, n)
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            lemma7_decompose(ms, ms.vector(coeffs / np.linalg.norm(coeffs)))
            assert intertwine_check(ms, cmath.exp(0.7j)) <= 1e-9


class TestNodesOfTheSquare:
    # The nodes and weights are the Clark atoms of theta^2 at -1; the
    # reference forms theta^2 (degree 2N) and solves its level set.
    @pytest.mark.parametrize("source", ["random", "model"])
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_clark_atoms_of_the_square(self, n, source):
        for seed in range(3):
            theta = (_random_theta(seed, n) if source == "random" else
                     inner_from_unitary(random_model(seed, n, "circle")))
            square = BlaschkeProduct(theta.zeros + theta.zeros, theta.c ** 2)
            (nodes,) = level_set_batch(square, -1.0)
            ms = build_model_space(theta)
            assert np.max(np.abs(np.angle(ms.grid / nodes))) <= 1e-13
            np.testing.assert_allclose(
                ms.weights, 1.0 / boundary_derivative_modulus(square, nodes),
                rtol=1e-8, atol=0.0)


class TestTAlpha:
    def test_degree_one(self):
        ms = build_model_space(Z1)
        alpha = cmath.exp(0.3j)
        t = t_alpha_matrix(ms, alpha)
        assert t.shape == (1, 1)
        assert t[0, 0] == pytest.approx(alpha)

    def test_degree_two_closed_form(self):
        ms = build_model_space(Z2)
        alpha = cmath.exp(1.9j)
        t = t_alpha_matrix(ms, alpha)
        assert t == pytest.approx(np.array([[0.0, alpha], [1.0, 0.0]]),
                                  abs=1e-12)

    def test_eigenvalues_are_clark_atoms(self, rng):
        theta = _random_theta(7, 6)
        ms = build_model_space(theta)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
            t = t_alpha_matrix(ms, alpha)
            mu = clark_measure(theta, alpha)
            eigs = np.sort(np.angle(np.linalg.eigvals(t)) % (2 * np.pi))
            assert eigs == pytest.approx(np.asarray(mu.angles), abs=1e-9)

    def test_eigenvector_masses_match_clark(self, rng):
        theta = _random_theta(8, 5)
        ms = build_model_space(theta)
        alpha = complex(np.exp(2.1j))
        t = t_alpha_matrix(ms, alpha)
        mu = clark_measure(theta, alpha)
        import scipy.linalg
        tt, q = scipy.linalg.schur(t, output="complex")
        order = np.argsort(np.angle(np.diag(tt)) % (2 * np.pi))
        cyclic = ms.coefficients(ms.constant_one())
        masses = np.abs(q.conj().T @ cyclic) ** 2
        assert masses[order] == pytest.approx(np.asarray(mu.masses), abs=1e-8)

    def test_unitarity_through_degree_16(self):
        for degree in range(1, 17):
            theta = _random_theta(100 + degree, degree)
            ms = build_model_space(theta)
            t = t_alpha_matrix(ms, cmath.exp(0.77j))
            defect = np.linalg.norm(t.conj().T @ t - np.eye(degree), 2)
            assert defect <= 1e-10

    def test_theta_not_vanishing_rejected(self):
        theta = BlaschkeProduct((0.5 + 0j,), 1.0)
        ms = build_model_space(theta)
        with pytest.raises(DomainError):
            t_alpha_matrix(ms, 1.0)

    def test_kept_realization_gives_the_rebuilt_matrix(self):
        # theta keeps its realization after the first solve; T_alpha, for
        # one alpha or a stack, equals the per-call rebuild bit for bit
        alphas = np.exp(1j * np.array([0.3, 2.0, 4.4]))
        for degree in range(1, 65):
            theta = _random_theta(200 + degree, degree)
            ms = build_model_space(theta)
            kept = herglotz._realization(theta)
            stack = t_alpha_matrix(ms, alphas)
            assert stack.shape == (3, degree, degree)
            for alpha, row in zip(alphas, stack):
                want = np.conj(_rebuilt_clark_unitary(
                    theta, _require_unimodular(complex(alpha))))
                assert np.array_equal(t_alpha_matrix(ms, alpha), want)
                assert np.array_equal(row, want)
            assert herglotz._realization(theta) is kept

    def test_stack_with_a_non_unitary_row_rejected(self, monkeypatch):
        ms = build_model_space(_random_theta(9, 4))
        unitaries = modelspace._clark_unitaries

        def scaled(theta, alphas):
            w = unitaries(theta, alphas)
            w[1:2] *= 1.01
            return w

        monkeypatch.setattr(modelspace, "_clark_unitaries", scaled)
        t_alpha_matrix(ms, 1j)
        with pytest.raises(ConstructionError, match="not unitary"):
            t_alpha_matrix(ms, [1j, -1j, 1.0])


class TestClarkOperator:
    def test_constant_function(self):
        ms = build_model_space(Z2)
        f = v_alpha(ms, 1.0, [1.0, 1.0])
        assert ms.eval_vector(f, 0.33 + 0.1j) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_gives_z(self):
        # theta = z^2, alpha = 1, values (+1, -1) at atoms (1, -1) -> f = z
        ms = build_model_space(Z2)
        f = v_alpha(ms, 1.0, [1.0, -1.0])
        assert np.asarray(f.coeffs) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_isometry(self, rng):
        theta = _random_theta(11, 6)
        ms = build_model_space(theta)
        alpha = complex(np.exp(0.37j))
        mu = clark_measure(theta, alpha)
        for _ in range(20):
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            f = v_alpha(ms, alpha, vals, mu=mu)
            l2 = math.sqrt(float(np.sum(np.asarray(mu.masses)
                                        * np.abs(vals) ** 2)))
            assert abs(f.norm() - l2) <= 1e-9

    def test_adjoint_evaluates(self):
        ms = build_model_space(Z2)
        f = ms.vector([0.0, 1.0])  # the function z
        vals = v_alpha_star(ms, 1.0, f)
        assert vals == pytest.approx([1.0, -1.0])

    def test_round_trip(self, rng):
        theta = _random_theta(12, 5)
        ms = build_model_space(theta)
        alpha = complex(np.exp(1.23j))
        mu = clark_measure(theta, alpha)
        for _ in range(20):
            vals = rng.normal(size=5) + 1j * rng.normal(size=5)
            back = v_alpha_star(ms, alpha, v_alpha(ms, alpha, vals, mu=mu), mu=mu)
            assert np.max(np.abs(back - vals)) < 1e-9

    def test_intertwining(self, rng):
        assert intertwine_check(build_model_space(Z1), 1j) < 1e-12
        assert intertwine_check(build_model_space(Z2), 1j) < 1e-10
        theta = _random_theta(13, 8)
        ms = build_model_space(theta)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 8)):
            assert intertwine_check(ms, alpha) <= 1e-9


class TestHat:
    def test_square_fixes_z(self):
        ms = build_model_space(Z2)
        f = ms.vector([0.0, 1.0])
        assert np.asarray(hat_conjugate(ms, f).coeffs) == pytest.approx(
            [0.0, 1.0], abs=1e-12)

    def test_cube_swaps(self):
        ms = build_model_space(Z3)
        f = ms.vector([0.0, 0.0, 1.0])  # z^2
        assert np.asarray(hat_conjugate(ms, f).coeffs) == pytest.approx(
            [0.0, 1.0, 0.0], abs=1e-12)

    def test_involution(self, rng):
        theta = _random_theta(14, 6)
        ms = build_model_space(theta)
        for _ in range(10):
            c = rng.normal(size=6) + 1j * rng.normal(size=6)
            c = c - ms.eval_vector(ms.vector(c), 0.0) * np.conj(ms.basis_at_zero)
            f = ms.vector(c)
            back = hat_conjugate(ms, hat_conjugate(ms, f))
            assert np.max(np.abs(np.asarray(back.coeffs) - c)) < 1e-10

    def test_nonvanishing_rejected(self):
        ms = build_model_space(Z2)
        with pytest.raises(DomainError):
            hat_conjugate(ms, ms.vector([1.0, 0.0]))


class TestLemma7:
    def test_square_worked_case(self):
        ms = build_model_space(Z2)
        g, h = lemma7_decompose(ms, ms.vector([0.0, 1.0]))
        assert np.asarray(g.coeffs) == pytest.approx([0.0, 0.0], abs=1e-10)
        assert np.asarray(h.coeffs) == pytest.approx([1.0, 0.0], abs=1e-10)

    def test_cube_worked_case(self):
        # f = (z + z^2)/sqrt(2): f^2 = (z^2 + 2 z^3 + z^4)/2 splits at z^3
        # into g = z^2/2 and h = 1 + z/2
        ms = build_model_space(Z3)
        s = 1.0 / math.sqrt(2.0)
        g, h = lemma7_decompose(ms, ms.vector([0.0, s, s]))
        assert np.asarray(g.coeffs) == pytest.approx([0.0, 0.0, 0.5], abs=1e-10)
        assert np.asarray(h.coeffs) == pytest.approx([1.0, 0.5, 0.0], abs=1e-10)

    def test_boundary_identity_random(self, rng):
        theta = _random_theta(15, 7)
        ms = build_model_space(theta)
        for _ in range(5):
            c = rng.normal(size=7) + 1j * rng.normal(size=7)
            c /= np.linalg.norm(c)
            f = ms.vector(c)
            g, h = lemma7_decompose(ms, f)
            xi = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
            f0c = c - ms.eval_vector(f, 0.0) * np.conj(ms.basis_at_zero)
            f0 = ms.vector(f0c)
            f0h = hat_conjugate(ms, f0)
            resid = (ms.eval_vector(f0, xi) * ms.eval_vector(f0h, xi)
                     - ms.eval_vector(g, xi)
                     - blaschke_eval(theta, xi) * ms.eval_vector(h, xi))
            assert np.max(np.abs(resid)) <= 1e-9

    def test_normalized_vanishing_f_attributes(self, rng):
        # for ||f|| = 1 and f(0) = 0 the split has g(0) = 0, h(0) = 1
        # (unit total mass of the weighted family measures)
        theta = _random_theta(16, 5)
        ms = build_model_space(theta)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        c = c - ms.eval_vector(ms.vector(c), 0.0) * np.conj(ms.basis_at_zero)
        c /= np.linalg.norm(c)
        g, h = lemma7_decompose(ms, ms.vector(c))
        assert abs(ms.eval_vector(g, 0.0)) < 1e-10
        assert ms.eval_vector(h, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_hat_matches_alpha_conjugate_at_atoms(self, rng):
        theta = _random_theta(17, 6)
        ms = build_model_space(theta)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        c = c - ms.eval_vector(ms.vector(c), 0.0) * np.conj(ms.basis_at_zero)
        f0 = ms.vector(c)
        f0h = hat_conjugate(ms, f0)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
            mu = clark_measure(theta, alpha)
            pts = mu.points()
            lhs = ms.eval_vector(f0h, pts)
            rhs = alpha * np.conj(ms.eval_vector(f0, pts))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestKnuAlpha:
    def test_square_closed_form(self, rng):
        ms = build_model_space(Z2)
        f = ms.vector([0.0, 1.0])
        for _ in range(6):
            alpha = complex(np.exp(2j * np.pi * rng.uniform()))
            z = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert knu_alpha(ms, f, alpha, z) == pytest.approx(
                alpha / (alpha - z * z), abs=1e-12)

    def test_vanishing_reduction(self, rng):
        # f(0) = 0: value reduces to (g + alpha h)/(alpha - theta)
        theta = _random_theta(18, 5)
        ms = build_model_space(theta)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        c = c - ms.eval_vector(ms.vector(c), 0.0) * np.conj(ms.basis_at_zero)
        f = ms.vector(c)
        g, h = lemma7_decompose(ms, f)
        alpha = complex(np.exp(0.6j))
        z = 0.4 - 0.3j
        reduced = ((ms.eval_vector(g, z) + alpha * ms.eval_vector(h, z))
                   / (alpha - blaschke_eval(theta, z)))
        assert knu_alpha(ms, f, alpha, z) == pytest.approx(reduced, abs=1e-12)

    def test_against_direct_transform(self, rng):
        # compare with the Cauchy transform of |f|^2 d(mu_alpha) computed
        # from the measure itself, including f(0) != 0
        theta = _random_theta(19, 6)
        ms = build_model_space(theta)
        for _ in range(5):
            c = rng.normal(size=6) + 1j * rng.normal(size=6)
            c /= np.linalg.norm(c)
            f = ms.vector(c)
            alpha = complex(np.exp(2j * np.pi * rng.uniform()))
            z = 0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            mu = clark_measure(theta, alpha)
            weights = (np.abs(ms.eval_vector(f, mu.points())) ** 2
                       * np.asarray(mu.masses))
            weighted = CircleAtomicMeasure.from_atoms(zip(mu.angles, weights))
            assert knu_alpha(ms, f, alpha, z) == pytest.approx(
                cauchy_transform_disk(weighted, z), abs=1e-9)


class TestTransformContext:
    def _space_and_vector(self, rng):
        theta = _random_theta(22, 6)
        ms = build_model_space(theta)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        return ms, ms.vector(c / np.linalg.norm(c))

    def test_one_split_per_vector(self, rng, split_calls):
        ms, f = self._space_and_vector(rng)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 16)):
            knu_alpha(ms, f, alpha, 0.3 - 0.2j)
        assert len(split_calls) == 1
        knu_alpha(ms, ms.vector(2.0 * np.asarray(f.coeffs)), 1.0, 0.1)
        assert len(split_calls) == 2

    def test_decompose_shares_the_split(self, rng, split_calls):
        ms, f = self._space_and_vector(rng)
        g, h = lemma7_decompose(ms, f)
        knu_alpha(ms, f, 1j, 0.3 - 0.2j)
        assert len(split_calls) == 1
        coeffs = modelspace._transform_context(ms, f).coeffs
        assert g == ms.vector(coeffs[2]) and h == ms.vector(coeffs[3])
        assert lemma7_decompose(ms, f) == (g, h)
        assert len(split_calls) == 1

    def test_intertwine_check_is_the_residual(self, rng):
        ms = build_model_space(_random_theta(23, 5))
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 4)):
            t = t_alpha_matrix(ms, alpha)
            mu = clark_measure(ms.theta, alpha)
            assert intertwine_check(ms, alpha) == modelspace._intertwine_residual(
                ms, mu, t)

    def test_one_conjugation_per_context(self, rng, monkeypatch):
        ms, f = self._space_and_vector(rng)
        calls = []
        original = modelspace.hat_conjugate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(modelspace, "hat_conjugate", counted)
        knu_alpha(ms, f, 1.0, 0.3 - 0.2j)
        assert len(calls) == 1

    def test_array_equals_scalar(self, rng):
        ms, f = self._space_and_vector(rng)
        zs = 0.9 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 16))
        alpha = complex(np.exp(1.1j))
        batch = knu_alpha(ms, f, alpha, zs)
        assert batch.shape == zs.shape
        scalar = np.array([knu_alpha(ms, f, alpha, z) for z in zs])
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0.0)
        assert isinstance(knu_alpha(ms, f, alpha, zs[0]), complex)

    def test_point_outside_disk_rejected(self, rng):
        ms, f = self._space_and_vector(rng)
        with pytest.raises(DomainError):
            knu_alpha(ms, f, 1.0, np.array([0.1, 1.0]))


class TestIdentities:
    def test_base_transform_identity(self, rng):
        # K mu_1 * (1 - theta) = 1 on the disk
        theta = _random_theta(20, 6)
        mu1 = clark_measure(theta, 1.0)
        for _ in range(10):
            z = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            val = cauchy_transform_disk(mu1, z) * (1.0 - blaschke_eval(theta, z))
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_weighted_base_transform_identity(self, rng):
        # K nu_1 * (1 - theta) = g + h for f with f(0) = 0
        theta = _random_theta(21, 5)
        ms = build_model_space(theta)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        c = c - ms.eval_vector(ms.vector(c), 0.0) * np.conj(ms.basis_at_zero)
        c /= np.linalg.norm(c)
        f = ms.vector(c)
        g, h = lemma7_decompose(ms, f)
        mu1 = clark_measure(theta, 1.0)
        weights = (np.abs(ms.eval_vector(f, mu1.points())) ** 2
                   * np.asarray(mu1.masses))
        nu1 = CircleAtomicMeasure.from_atoms(zip(mu1.angles, weights))
        for _ in range(10):
            z = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            lhs = cauchy_transform_disk(nu1, z) * (1.0 - blaschke_eval(theta, z))
            rhs = ms.eval_vector(g, z) + ms.eval_vector(h, z)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSerialization:
    def test_fingerprint_mismatch(self):
        ms2 = build_model_space(Z2)
        ms3 = build_model_space(Z3)
        f = ms2.vector([0.0, 1.0])
        with pytest.raises(DomainError):
            ms3.coefficients(f)

    def test_fingerprint_stability(self):
        assert theta_fingerprint(Z2) == theta_fingerprint(
            BlaschkeProduct((0j, 0j), 1.0))


class TestAdjointClarkOperator:
    def test_one_evaluation_at_every_atom(self):
        # v_alpha_star is the boundary value of the vector at each atom, an
        # array even for a single atom
        for theta in (Z1, _random_theta(5, 6)):
            ms = build_model_space(theta)
            rng = np.random.default_rng(5)
            f = ms.vector(rng.normal(size=theta.degree)
                          + 1j * rng.normal(size=theta.degree))
            mu = clark_measure(theta, 1j)
            got = v_alpha_star(ms, 1j, f)
            assert got.shape == (theta.degree,)
            want = [ms.eval_vector(f, xi) for xi in mu.points()]
            assert np.allclose(got, want, rtol=0, atol=1e-14)
