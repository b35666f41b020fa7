import math

import numpy as np
import pytest

from clarklab import quadrature
from clarklab.errors import QuadratureError
from clarklab.quadrature import (_GAUSS_W, _KRONROD_W, integrate_circle,
                                 integrate_line)


class TestWeights:
    def test_tables_integrate_constants(self):
        # both rules must integrate 1 over [-1, 1] exactly
        assert math.fsum(_KRONROD_W) == pytest.approx(2.0, abs=1e-13)
        assert math.fsum(_GAUSS_W) == pytest.approx(2.0, abs=1e-13)

    def test_gauss_polynomial_exactness(self):
        # Gauss-7 is exact through degree 13, Kronrod-15 through degree 22
        for k in (1, 3, 7, 13):
            val, _ = integrate_line(lambda x, k=k: x ** k, -1.0, 1.0, tol=1e-13)
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert val == pytest.approx(want, abs=1e-13)


class TestLine:
    def test_linear(self):
        val, err = integrate_line(lambda x: x, 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert err <= 1e-12

    def test_oscillatory(self):
        val, err = integrate_line(np.sin, 0.0, 2.0 * math.pi, tol=1e-10)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_error_estimate_honest(self):
        # a-posteriori estimate must dominate the true error on known cases
        cases = [
            (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
            (lambda x: 1.0 / (1.0 + x ** 2), -4.0, 4.0, 2.0 * math.atan(4.0)),
            (lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.5 * (0.09 + 0.49)),
        ]
        for f, a, b, want in cases:
            val, err = integrate_line(f, a, b, tol=1e-9)
            assert abs(val - want) <= max(err, 1e-13)

    def test_breakpoints_resolve_jump(self):
        step = lambda x: np.where(x < 0.25, 1.0, 3.0)
        val, _ = integrate_line(step, 0.0, 1.0, tol=1e-12, breakpoints=[0.25])
        assert val == pytest.approx(0.25 + 3.0 * 0.75, abs=1e-12)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 30)
        wild = lambda x: np.sin(1.0 / np.maximum(np.abs(x), 1e-300))
        with pytest.raises(QuadratureError):
            integrate_line(wild, 0.0, 1.0, tol=1e-13)

    def test_empty_interval(self):
        assert integrate_line(lambda x: x, 1.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        calls = []
        with pytest.raises(QuadratureError, match="tolerance must be positive"):
            integrate_line(lambda x: calls.append(x) or x, 0.0, 1.0, tol=tol)
        assert calls == []


def _panel_counts(sizes, initial):
    """Panel count after each call of the integrand, from the node counts
    of the calls: every later call holds the two children of each panel
    its round splits, and each split adds one panel."""
    counts = [initial]
    for size in sizes[1:]:
        counts.append(counts[-1] + size // 30)
    return counts


class TestRefinementRounds:
    def test_unmarked_jumps_one_call_per_round(self):
        # two jumps that bisection never lands on: each round splits the
        # panels holding them, and all their children go in one call
        sizes = []

        def step(x):
            sizes.append(x.size)
            return np.where(x < 0.3, 1.0, np.where(x < 0.7, 3.0, -2.0))

        val, err = integrate_line(step, 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(0.3 + 3.0 * 0.4 - 2.0 * 0.3, abs=1e-10)
        assert err <= 1e-10
        assert sizes[0] == 15
        assert all(size % 30 == 0 for size in sizes[1:])
        panels = _panel_counts(sizes, 1)[-1]
        assert len(sizes) < panels
        assert max(sizes) >= 60

    def test_no_round_overshoots_max_panels(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 30)
        sizes = []

        def wild(x):
            sizes.append(x.size)
            return np.sin(1.0 / np.maximum(np.abs(x), 1e-300))

        with pytest.raises(QuadratureError, match="with 30 panels"):
            integrate_line(wild, 0.0, 1.0, tol=1e-13,
                           breakpoints=[0.25, 0.5])
        counts = _panel_counts(sizes, 3)
        assert max(counts) == 30
        assert len(sizes) < 28

    def test_reruns_bit_identical(self):
        # symmetric integrand: panels tie in error, and the tie order must
        # not depend on anything but insertion order
        f = lambda x: np.abs(np.sin(7.0 * x)) + np.where(x < 1.0 / 3.0, 0.0, 1.0)
        runs = [integrate_line(f, -1.0, 1.0, tol=1e-11, breakpoints=[0.0])
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][1] <= 1e-11


class TestCircle:
    def test_poisson_mean_value(self):
        z = 0.5
        f = lambda s: (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * s) - z) ** 2
        val, err = integrate_circle(f, tol=1e-10)
        assert val / (2 * math.pi) == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        val, _ = integrate_circle(lambda s: np.ones_like(s), tol=1e-12)
        assert val == pytest.approx(2.0 * math.pi, abs=1e-10)

    def test_breakpoints_for_jumps(self):
        # indicator of an arc: exact total is the arc length
        lo, hi = 1.0, 2.5
        f = lambda s: ((s >= lo) & (s <= hi)).astype(float)
        val, _ = integrate_circle(f, tol=1e-8, breakpoints=[lo, hi])
        assert val == pytest.approx(hi - lo, abs=1e-7)

    def test_breakpoints_reduced_mod_two_pi(self):
        # the arc's ends given one turn up and one turn down: reduced, they
        # cut the circle into three panels on which the indicator is
        # constant, so those three panels, evaluated in one call, meet the
        # tolerance
        lo, hi = 1.0, 2.5
        nodes = []

        def f(s):
            nodes.append(s.size)
            return ((s >= lo) & (s <= hi)).astype(float)

        val, err = integrate_circle(
            f, tol=1e-12, breakpoints=[lo + 2.0 * math.pi, hi - 2.0 * math.pi])
        assert val == pytest.approx(hi - lo, abs=1e-13)
        assert err <= 1e-12
        assert nodes == [45]


class TestReversedInterval:
    def test_kink_with_breakpoint(self):
        # over [0, 1] the integral of |x - 0.3| is 0.045 + 0.245; reversed,
        # the breakpoint is kept and the value negated
        val, err = integrate_line(lambda x: np.abs(x - 0.3), 1.0, 0.0,
                                  tol=1e-12, breakpoints=[0.3])
        assert val == pytest.approx(-0.29, abs=1e-12)
        assert err <= 1e-12

    def test_refined_reversed_is_negated_forward(self):
        # no breakpoint: the kink forces refinement, which a reversed panel
        # must support
        f = lambda x: np.abs(x - 0.3)
        forward = integrate_line(f, 0.0, 1.0, tol=1e-10)
        backward = integrate_line(f, 1.0, 0.0, tol=1e-10)
        assert backward == (-forward[0], forward[1])
