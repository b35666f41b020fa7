import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clarklab import herglotz
from clarklab.errors import (ConstructionError, DomainError, PoleError,
                             ResidueError, RootFindingError)
from clarklab.herglotz import (BlaschkeProduct, blaschke_eval,
                               boundary_derivative_modulus,
                               cauchy_rational_line, level_set_batch,
                               residue_masses_line, secular_roots_line)
from clarklab.measures import LineAtomicMeasure, cauchy_transform_line
from clarklab.rankone import (CyclicOperatorModel, inner_from_unitary,
                              perturb_selfadjoint, rank_one_unitary_update,
                              spectral_measure)
from clarklab.scenarios import random_model

from conftest import line_measures

TWO_SYM = LineAtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
DELTA0 = LineAtomicMeasure.from_atoms([(0.0, 1.0)])


class TestLineTransform:
    def test_measure_is_its_own_transform(self):
        assert cauchy_rational_line(TWO_SYM) is TWO_SYM

    def test_zero_measure_has_no_poles(self):
        zero = LineAtomicMeasure((), ())
        for route in (lambda: secular_roots_line(zero, 1.0),
                      lambda: residue_masses_line(zero, 1.0, [])):
            with pytest.raises(DomainError):
                route()


class TestRationalEval:
    def test_reciprocal(self):
        f = cauchy_rational_line(DELTA0)  # -1/z
        assert cauchy_transform_line(f, 1j) == pytest.approx(1j)

    def test_two_atom_transform(self):
        K = cauchy_rational_line(TWO_SYM)  # x / (1 - x^2)
        assert cauchy_transform_line(K, 2.0) == pytest.approx(-2.0 / 3.0)

    def test_pole_error(self):
        K = cauchy_rational_line(DELTA0)
        with pytest.raises(PoleError):
            cauchy_transform_line(K, 0.0)


class TestBlaschke:
    def test_identity_function(self):
        theta = BlaschkeProduct((0j,), 1.0)
        assert blaschke_eval(theta, 0.5) == pytest.approx(0.5)

    def test_square(self):
        theta = BlaschkeProduct((0j, 0j), 1.0)
        assert blaschke_eval(theta, 0.5j) == pytest.approx(-0.25)

    def test_boundary_modulus(self, rng):
        zeros = 0.8 * np.sqrt(rng.uniform(0, 1, 5)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 5))
        theta = BlaschkeProduct(tuple(zeros), cmath.exp(0.4j))
        xi = np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        assert np.max(np.abs(np.abs(blaschke_eval(theta, xi)) - 1.0)) < 1e-12

    def test_zero_outside_rejected(self):
        with pytest.raises(ConstructionError):
            BlaschkeProduct((1.0 + 0j,), 1.0)

    def test_constant_not_unimodular_rejected(self):
        with pytest.raises(ConstructionError):
            BlaschkeProduct((0j,), 0.5)

    @pytest.mark.parametrize("zeros, c", [((complex(math.nan),), 1.0),
                                          ((0j,), complex(math.nan)),
                                          ((), complex(math.nan, 1.0))])
    def test_nan_rejected(self, zeros, c):
        with pytest.raises(ConstructionError):
            BlaschkeProduct(zeros, c)

    def test_boundary_derivative_is_modulus(self):
        # |theta'| on the circle is the rate of the boundary phase
        # d/dt arg theta(e^{it}), here a central difference of that phase
        theta = BlaschkeProduct((0.3 + 0.1j, -0.2j), cmath.exp(1.1j))
        h = 1e-5
        for t in np.linspace(0.0, 2 * np.pi, 9, endpoint=False) + 0.9:
            ratio = (blaschke_eval(theta, cmath.exp(1j * (t + h)))
                     / blaschke_eval(theta, cmath.exp(1j * (t - h))))
            fd = cmath.phase(ratio) / (2 * h)
            assert boundary_derivative_modulus(
                theta, cmath.exp(1j * t)) == pytest.approx(fd, rel=1e-8)


class TestLevelSet:
    def test_identity(self):
        theta = BlaschkeProduct((0j,), 1.0)
        assert level_set_batch(theta, 1.0)[0] == pytest.approx([1.0 + 0j])

    def test_square_at_one(self):
        theta = BlaschkeProduct((0j, 0j), 1.0)
        pts = level_set_batch(theta, 1.0)[0]
        assert sorted(np.round(pts, 12)) == pytest.approx([-1.0, 1.0])

    def test_square_at_i(self):
        # polynomial oracle: roots of z^2 - i
        theta = BlaschkeProduct((0j, 0j), 1.0)
        pts = level_set_batch(theta, 1j)[0]
        oracle = np.sort(np.angle(np.roots([1.0, 0.0, -1j])) % (2 * np.pi))
        assert np.sort(np.angle(pts) % (2 * np.pi)) == pytest.approx(oracle)

    def test_count_and_quality(self, rng):
        zeros = 0.7 * np.sqrt(rng.uniform(0, 1, 6)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 6))
        theta = BlaschkeProduct(tuple(zeros), 1.0)
        for alpha in np.exp(2j * np.pi * rng.uniform(0, 1, 8)):
            pts = level_set_batch(theta, alpha)[0]
            assert pts.shape == (6,)
            assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-12
            assert np.max(np.abs(blaschke_eval(theta, pts) - alpha)) < 1e-9

    def test_disjoint_level_sets(self, rng):
        zeros = 0.6 * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 8))
        theta = BlaschkeProduct(tuple(zeros), 1.0)
        alphas = np.exp(2j * np.pi * rng.uniform(0, 1, 6))
        sets = level_set_batch(theta, alphas)
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                if abs(alphas[i] - alphas[j]) > 1e-3:
                    dist = np.min(np.abs(sets[i][:, None] - sets[j][None, :]))
                    assert dist > 1e-9

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            level_set_batch(BlaschkeProduct((), 1.0), 1.0)[0]

    def test_repeated_phase_branch_rejected(self, monkeypatch):
        # Two eigenvalue starts on one point polish to one root: the level
        # set then misses a branch of the boundary phase and must raise.
        eigvals = np.linalg.eigvals

        def doubled(a):
            lam = eigvals(a)
            lam[..., 1] = lam[..., 0]
            return lam

        monkeypatch.setattr(np.linalg, "eigvals", doubled)
        theta = BlaschkeProduct((0.3 + 0.2j, -0.5j, 0.1, -0.6 + 0.1j), 1j)
        with pytest.raises(RootFindingError, match="phase branch"):
            level_set_batch(theta, cmath.exp(0.7j))[0]

    def test_stalled_polish_names_its_alpha(self, monkeypatch):
        # one row of a stack starts 1e-3 off its level set and gets one
        # Newton step; the stall names that row's alpha
        theta = BlaschkeProduct((0.3 + 0.2j, -0.5j, 0.1), 1j)
        alphas = np.exp(1j * np.array([0.4, 1.7, 5.2]))
        unitaries = herglotz._clark_unitaries

        def rotated(theta, alphas):
            w = unitaries(theta, alphas)
            w[1] *= cmath.exp(1e-3j)
            return w

        monkeypatch.setattr(herglotz, "_clark_unitaries", rotated)
        monkeypatch.setattr(herglotz, "_LEVEL_SET_MAX_NEWTON", 1)
        named = f"alpha = {herglotz._require_unimodular(alphas)[1]:.6f}: Newton"
        with pytest.raises(RootFindingError, match=re.escape(named)):
            level_set_batch(theta, alphas)

    def test_vanishing_derivative_names_its_alpha(self, monkeypatch):
        theta = BlaschkeProduct((0j, 0.5 + 0.2j, -0.3j))
        alphas = np.exp(1j * np.array([0.4, 1.7, 5.2]))
        modulus = herglotz.boundary_derivative_modulus

        def flat_last_row(theta, xi):
            out = modulus(theta, xi)
            if np.ndim(out) == 2:
                out[2] = 0.0
            return out

        monkeypatch.setattr(herglotz, "boundary_derivative_modulus",
                            flat_last_row)
        named = f"of alpha = {alphas[2]:.6f}"
        with pytest.raises(ResidueError, match=re.escape(named)):
            herglotz._clark_atoms(theta, alphas)

    def test_degree_512_against_dense_eigenvalues(self):
        # |theta'| reaches 1e8 here, so most points cannot get within 1e-12
        # of alpha in binary64; the polish stops at the attainable floor.
        model = random_model(0, 512, "circle")
        alpha = cmath.exp(2.1j)
        pts = level_set_batch(inner_from_unitary(model), alpha)[0]
        got = np.angle(pts) % (2 * np.pi)
        want = np.sort(np.angle(np.linalg.eigvals(rank_one_unitary_update(
            model.dense(), model.cyclic_vector(), alpha))) % (2 * np.pi))
        dist = np.abs(got - want)
        assert np.max(np.minimum(dist, 2 * np.pi - dist)) <= 1e-9


class TestRequireUnimodular:
    def test_array_matches_scalar_bitwise(self, rng):
        alphas = np.exp(1j * rng.uniform(0, 7, (40, 3))) * (
            1.0 + rng.uniform(-1e-10, 1e-10, (40, 3)))
        got = herglotz._require_unimodular(alphas)
        assert got.shape == alphas.shape
        want = [[herglotz._require_unimodular(complex(a)) for a in row]
                for row in alphas]
        assert np.array_equal(got, np.array(want))

    def test_sequences_are_arrays(self):
        got = herglotz._require_unimodular([1.0, 1j, (0.6 - 0.8j)])
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [1.0, 1j, 0.6 - 0.8j])

    def test_scalar_stays_a_complex(self):
        assert type(herglotz._require_unimodular(np.complex128(1j))) is complex

    @pytest.mark.parametrize("bad", [1.1, 0.5j, math.nan, complex(math.nan, 0.0),
                                     math.inf])
    def test_first_bad_value_named(self, bad):
        alphas = np.array([1.0, 1j, bad, 2.0], dtype=complex)
        with pytest.raises(DomainError, match="not unimodular") as info:
            herglotz._require_unimodular(alphas)
        assert str(complex(bad)) in str(info.value)
        assert "(2+0j)" not in str(info.value)
        with pytest.raises(DomainError, match="not unimodular"):
            herglotz._require_unimodular(bad)

    def test_level_set_batch_rejects_bad_alpha(self):
        theta = BlaschkeProduct((0.3 + 0.2j, -0.5j), 1.0)
        with pytest.raises(DomainError, match=r"\(nan"):
            level_set_batch(theta, [1.0, complex(math.nan, 0.0), 1j])
        assert level_set_batch(theta, np.exp(1j * np.arange(4.0))).shape == (4, 2)
        # one alpha is a batch of one
        one = level_set_batch(theta, 1j)
        assert one.shape == (1, 2)
        assert np.array_equal(one, level_set_batch(theta, [1j]))


class TestSecular:
    def test_root_on_an_atom_names_the_atom(self):
        # the 2e-13 gaps are below the solver's resolution; a dense
        # eigen-solve still finds five distinct eigenvalues
        w = np.array([0.3, 1e-9, 0.4, 1e-9, 0.3])
        model = CyclicOperatorModel.from_data(
            "line", [0.0, 1.0 - 2e-13, 1.0, 1.0 + 2e-13, 2.0], w / w.sum())
        phi = model.cyclic_vector()
        dense = model.dense() + 0.5 * np.outer(phi, phi)
        assert np.unique(np.linalg.eigvalsh(dense)).size == 5
        with pytest.raises(RootFindingError) as info:
            perturb_selfadjoint(model, 0.5)
        message = str(info.value)
        assert "coincides with the atom at 0.9999999999998 " in message
        assert "(gap 2.000e-13 to the next atom)" in message
        assert "for coupling 0.5 " in message
        assert "inf" not in message

    def test_failed_root_in_a_stack_names_its_coupling(self):
        # the model above, solved at two couplings in one call: the message
        # names one of them, and that coupling fails on its own too
        w = np.array([0.3, 1e-9, 0.4, 1e-9, 0.3])
        model = CyclicOperatorModel.from_data(
            "line", [0.0, 1.0 - 2e-13, 1.0, 1.0 + 2e-13, 2.0], w / w.sum())
        with pytest.raises(RootFindingError) as info:
            herglotz._perturbed_atoms_line(spectral_measure(model), [0.5, -2.0])
        lam = float(re.search(r"for coupling (\S+) ", str(info.value)).group(1))
        assert lam in (0.5, -2.0)
        with pytest.raises(RootFindingError, match=f"for coupling {lam:g} "):
            perturb_selfadjoint(model, lam)

    def test_coupling_is_named_as_given(self, monkeypatch):
        # -1/(-1/49) is 48.99999999999999; the message still says 49
        monkeypatch.setattr(herglotz, "_NEWTON_MAX_STEPS", 0)
        with pytest.raises(RootFindingError, match="for coupling 49 has"):
            secular_roots_line(TWO_SYM, 49.0)

    def test_scalar(self):
        assert secular_roots_line(DELTA0, 3.0) == pytest.approx([3.0])

    def test_two_atom_closed_form(self):
        # -1/x = ... K(x) = x/(1-x^2) = -1/3  <=>  x^2 - 3x - 1 = 0
        roots = secular_roots_line(TWO_SYM, 3.0)
        want = [(3.0 - math.sqrt(13.0)) / 2.0, (3.0 + math.sqrt(13.0)) / 2.0]
        assert roots == pytest.approx(want, rel=1e-13)

    def test_continuity_to_unperturbed(self):
        roots = secular_roots_line(TWO_SYM, 1e-8)
        assert roots[0] == pytest.approx(-1.0, abs=1e-7)
        assert roots[1] == pytest.approx(1.0, abs=1e-7)

    def test_zero_coupling_rejected(self):
        with pytest.raises(DomainError):
            secular_roots_line(TWO_SYM, 0.0)

    @pytest.mark.parametrize("lam, name", [(math.inf, "inf"),
                                           (-math.inf, "-inf"),
                                           (math.nan, "nan")])
    def test_non_finite_coupling_rejected(self, lam, name):
        # -1/inf is a zero target, which would drop the outside root
        mu = LineAtomicMeasure((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        model = random_model(3, 3, "line")
        routes = (lambda: secular_roots_line(mu, lam),
                  lambda: residue_masses_line(mu, lam, [0.5, 1.5, 2.5]),
                  lambda: perturb_selfadjoint(model, lam),
                  lambda: herglotz._perturbed_atoms_line(mu, [1.0, lam]))
        for route in routes:
            with pytest.raises(DomainError, match=f"coupling {name} "):
                route()

    @given(line_measures(), st.sampled_from([0.1, -0.1, 1.0, -1.0, 10.0, -10.0]))
    def test_interlacing(self, mu, lam):
        roots = secular_roots_line(mu, lam)
        t = np.asarray(mu.positions)
        assert roots.shape == t.shape
        # one root strictly inside each gap
        for j in range(len(t) - 1):
            inside = roots[(roots > t[j]) & (roots < t[j + 1])]
            assert inside.size == 1
        if lam > 0:
            assert roots[-1] > t[-1]
        else:
            assert roots[0] < t[0]

    @given(line_measures(), st.sampled_from([0.5, -0.5, 2.0, -2.0]))
    def test_residual_contract(self, mu, lam):
        roots = secular_roots_line(mu, lam)
        t = np.asarray(mu.positions)
        m = np.asarray(mu.masses)
        resid = np.abs(np.sum(m / (t[None, :] - roots[:, None]), axis=1) + 1.0 / lam)
        assert np.all(resid <= 1e-11 * abs(1.0 / lam)
                      + 1e-12 * np.sum(m / (t[None, :] - roots[:, None]) ** 2, axis=1))

    @pytest.mark.parametrize("lam", [1e-3, -1e-3, 1e3, -1e3])
    @pytest.mark.parametrize("t, m", [
        ([0.5], [2.0]),
        ([-1.0, 0.0, 1e-9, 1.0], [0.25] * 4),
        (np.arange(8.0), np.logspace(-12, 0, 8)),
        # the roots next to the 1e-12 masses sit about one ulp from them
        (np.arange(8.0), np.logspace(0, -12, 8)),
        (1e6 + np.array([0.0, 1.0]), [0.5, 0.5]),
    ], ids=["single", "close-atoms", "small-masses-first",
            "small-masses-last", "far-atoms"])
    def test_hard_inputs_against_eigvalsh(self, t, m, lam):
        t = np.asarray(t, dtype=float)
        m = np.asarray(m, dtype=float)
        roots = secular_roots_line(LineAtomicMeasure(tuple(t), tuple(m)), lam)
        phi = np.sqrt(m)
        want = np.linalg.eigvalsh(np.diag(t) + lam * np.outer(phi, phi))
        assert np.max(np.abs(roots - want)) <= 1e-9 * (1.0 + abs(lam))
        interior = roots[:-1] if lam > 0 else roots[1:]
        assert np.all((interior > t[:-1]) & (interior < t[1:]))
        assert roots[-1] > t[-1] if lam > 0 else roots[0] < t[0]


def _bisection(root):
    """Value x - root with slope 0: every Newton step leaves the bracket,
    so each step of the driver is the bracket's midpoint."""
    return lambda x, idx: (x - root, np.zeros_like(x))


def _secular_solve_loop(t, m, targets):
    """The secular roots as the solver found them with its own Newton loop,
    before it shared ``_safeguarded_newton``; the reference for bit
    identity (no postcondition)."""
    targets = np.array(targets, dtype=float, ndmin=1)
    n = t.size
    below = np.arange(n) - (targets > 0.0)[:, None]
    above = below + 1
    has_a, has_b = below >= 0, above < n
    below, above = np.maximum(below, 0), np.minimum(above, n - 1)
    lo, hi = t[below], t[above]
    total, first, last = math.fsum(m), float(t[0]), float(t[-1])
    for r, target in enumerate(targets.tolist()):
        reach = total / abs(target)
        if target < 0.0:
            lo[r, -1], hi[r, -1] = max(last, first + reach), last + reach
        else:
            lo[r, 0], hi[r, 0] = first - reach, min(first, last - reach)
    shape = lo.shape
    lo, hi, below, above = lo.ravel(), hi.ravel(), below.ravel(), above.ravel()
    has_a, has_b = has_a.ravel(), has_b.ravel()
    target = np.repeat(targets, shape[1])
    tol = 2.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    x = 0.5 * (lo + hi)
    m_a, m_b = np.where(has_a, m[below], 0.0), np.where(has_b, m[above], 0.0)
    todo = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            if todo.size == 0:
                break
            xs, a, b = x[todo], below[todo], above[todo]
            pa, pb, ma, mb = has_a[todo], has_b[todo], m_a[todo], m_b[todo]
            idx = np.arange(todo.size)
            recip = 1.0 / (t[None, :] - xs[:, None])
            recip[idx[pa], a[pa]] = 0.0
            recip[idx[pb], b[pb]] = 0.0
            rest = recip @ m - target[todo]
            rest_prime = np.square(recip, out=recip) @ m
            u = np.where(pa, xs - t[a], 1.0)
            v = np.where(pb, t[b] - xs, 1.0)
            h = u * v * rest - ma * v + mb * u
            dh = ((pa * v - pb * u) * rest + u * v * rest_prime
                  + ma * pb + mb * pa)
            lo_t = lo[todo] = np.where(h < 0.0, xs, lo[todo])
            hi_t = hi[todo] = np.where(h > 0.0, xs, hi[todo])
            step = xs - h / dh
            inside = (step >= lo_t) & (step <= hi_t)
            x_t = x[todo] = np.where(inside, step, 0.5 * (lo_t + hi_t))
            todo = todo[np.abs(x_t - xs) > tol[todo]]
    return x.reshape(shape)


def _couplings(seed):
    """Four couplings of each sign, magnitudes from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    return np.tile([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 3.0, 8)


class TestSafeguardedNewton:
    def test_step_leaving_the_bracket_becomes_the_midpoint(self, monkeypatch):
        # one step from x = 0.5 with values -1, +1, -0.5 and 0 and slopes
        # 0.1, 0, 1, 0: a step past hi, a zero slope, a step onto hi
        # (inside, kept) and 0/0 (no bracket change)
        monkeypatch.setattr(herglotz, "_NEWTON_MAX_STEPS", 1)
        values = np.array([-1.0, 1.0, -0.5, 0.0])
        slopes = np.array([0.1, 0.0, 1.0, 0.0])
        x, lo, hi = np.full(4, 0.5), np.zeros(4), np.ones(4)
        got = herglotz._safeguarded_newton(lambda xs, idx: (values[idx],
                                                            slopes[idx]),
                                           x, lo, hi, 0.0)
        assert got.tolist() == [0.75, 0.25, 1.0, 0.5]
        assert x.tolist() == [0.5] * 4 and lo.tolist() == [0.0] * 4
        assert hi.tolist() == [1.0] * 4

    def test_each_entry_stops_on_its_own_tol(self):
        # bisection towards 1/3 from [0, 1]: step k is 2^-(k+1), so an
        # entry with tol 1/8 stops after 2 steps (a step equal to its tol
        # is its last) and one with 1e-3 after 9
        seen = []
        bisect = _bisection(1.0 / 3.0)

        def fn(x, idx):
            seen.append(idx.tolist())
            return bisect(x, idx)

        got = herglotz._safeguarded_newton(fn, np.full(2, 0.5), np.zeros(2),
                                           np.ones(2), np.array([0.125, 1e-3]))
        assert seen == [[0, 1]] * 2 + [[1]] * 7
        assert got[0] == 0.375
        alone = herglotz._safeguarded_newton(bisect, [0.5], [0.0], [1.0],
                                             1e-3)
        assert got[1] == alone[0]
        assert abs(got[1] - 1.0 / 3.0) <= 2e-3

    def test_cap_returns_the_last_iterate(self, monkeypatch):
        bisect = _bisection(1.0 / 3.0)
        for steps, want in ((0, 0.5), (1, 0.25), (2, 0.375)):
            monkeypatch.setattr(herglotz, "_NEWTON_MAX_STEPS", steps)
            got = herglotz._safeguarded_newton(bisect, [0.5], [0.0], [1.0],
                                               0.0)
            assert got.tolist() == [want]

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    def test_secular_roots_bit_for_bit_as_the_own_loop(self, n):
        for seed in range(4):
            mu = spectral_measure(random_model(100 * n + seed, n, "line"))
            t, m = np.asarray(mu.positions), np.asarray(mu.masses)
            lams = _couplings(seed)
            for targets in (-1.0 / lams, -1.0 / lams[lams > 0],
                            -1.0 / lams[lams < 0]):
                got = herglotz._secular_solve(t, m, targets)
                assert np.array_equal(got, _secular_solve_loop(t, m, targets))


class TestBatchedSecular:
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_rows_equal_scalar_calls(self, n):
        mu = spectral_measure(random_model(n, n, "line"))
        lams = np.array([-50.0, -1.0, -1e-3, 1e-3, 0.7, 50.0])
        roots, masses = herglotz._perturbed_atoms_line(mu, lams)
        assert roots.shape == masses.shape == (lams.size, n)
        # a batch may sum K in another order than one row alone
        for lam, row, mrow in zip(lams, roots, masses):
            want = secular_roots_line(mu, lam)
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(
                mrow, residue_masses_line(mu, lam, want), rtol=1e-12)

    def test_row_missing_total_mass_rejected(self, monkeypatch):
        # one coupling's roots moved off the secular equation: its residue
        # masses no longer sum to the total mass
        original = herglotz._secular_solve

        def shifted(t, m, targets):
            roots = original(t, m, targets)
            roots[1] += 1e-6
            return roots

        monkeypatch.setattr(herglotz, "_secular_solve", shifted)
        mu = spectral_measure(random_model(4, 4, "line"))
        with pytest.raises(ResidueError, match="at coupling 2.0"):
            herglotz._perturbed_atoms_line(mu, [1.0, 2.0, 3.0])


class TestResidues:
    def test_scalar_mass(self):
        masses = residue_masses_line(DELTA0, 3.0, [3.0])
        assert masses == pytest.approx([1.0])

    def test_two_atom_vs_eigendecomposition(self):
        # 2x2 oracle: diag(-1, 1) + 3 phi phi^T with phi = (1, 1)/sqrt(2)
        phi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        a = np.diag([-1.0, 1.0]) + 3.0 * np.outer(phi, phi)
        evals, evecs = np.linalg.eigh(a)
        want = (evecs.T @ phi) ** 2
        roots = secular_roots_line(TWO_SYM, 3.0)
        masses = residue_masses_line(TWO_SYM, 3.0, roots)
        assert roots == pytest.approx(evals, rel=1e-12)
        assert masses == pytest.approx(want, rel=1e-10)

    @given(line_measures(), st.sampled_from([0.3, -0.7, 5.0]))
    def test_positive_and_conserved(self, mu, lam):
        roots = secular_roots_line(mu, lam)
        masses = residue_masses_line(mu, lam, roots)
        assert np.all(masses > 0.0)
        assert math.fsum(masses) == pytest.approx(math.fsum(mu.masses), abs=1e-10)

    def test_large_couplings_share_the_zeros_of_the_transform(self):
        # as lam -> +-inf one root escapes and the others tend to the zeros
        # of K from either side, at distance about 1/(lam K'); the small K'
        # of the escaped root is no reason to refuse its mass
        for seed in range(3):
            mu = spectral_measure(random_model(seed, 16, "line"))
            plus = secular_roots_line(mu, 1e12)
            minus = secular_roots_line(mu, -1e12)
            assert plus[:-1] == pytest.approx(minus[1:], abs=1e-9)
            t = np.asarray(mu.positions)
            assert np.all((plus[:-1] > t[:-1]) & (plus[:-1] < t[1:]))
            for lam, roots in ((1e12, plus), (-1e12, minus)):
                masses = residue_masses_line(mu, lam, roots)
                assert math.fsum(masses) == pytest.approx(
                    math.fsum(mu.masses), abs=1e-10)
