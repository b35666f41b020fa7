import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clarklab.errors import (ConstructionError, DomainError, PoleError,
                             ScenarioError)
from clarklab.measures import (BorelSetSpec, CircleAtomicMeasure,
                               LineAtomicMeasure, cauchy_transform_disk,
                               cauchy_transform_line, measure_from_json,
                               measure_from_json_dict, measure_of,
                               measure_to_json, _normalize_arc,
                               simon_wolff_integral,
                               simon_wolff_integral_circle, total_mass)
from clarklab.rankone import CyclicOperatorModel, spectral_measure

from conftest import circle_measures, line_measures

DELTA0 = LineAtomicMeasure.from_atoms([(0.0, 1.0)])
TWO_SYM = LineAtomicMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
DELTA1_C = CircleAtomicMeasure.from_atoms([(0.0, 1.0)])
TWO_C = CircleAtomicMeasure.from_atoms([(0.0, 0.5), (math.pi, 0.5)])


class TestTotalMass:
    def test_unit_atom(self):
        assert total_mass(DELTA0) == 1.0

    def test_two_atoms(self):
        assert total_mass(TWO_SYM) == 1.0

    def test_empty(self):
        assert total_mass(LineAtomicMeasure((), ())) == 0.0


class TestMeasureOf:
    def test_atom_inside(self):
        assert measure_of(DELTA0, BorelSetSpec("line", ((-1.0, 1.0),))) == 1.0

    def test_atom_outside(self):
        assert measure_of(DELTA0, BorelSetSpec("line", ((1.0, 2.0),))) == 0.0

    def test_one_of_two(self):
        assert measure_of(TWO_SYM, BorelSetSpec("line", ((0.0, 2.0),))) == 0.5

    def test_endpoint_counts(self):
        # closed pieces: an atom on the boundary is inside
        assert measure_of(DELTA0, BorelSetSpec("line", ((0.0, 1.0),))) == 1.0

    def test_additivity(self):
        b1 = BorelSetSpec("line", ((-2.0, 0.0),))
        b2 = BorelSetSpec("line", ((0.5, 2.0),))
        both = BorelSetSpec("line", ((-2.0, 0.0), (0.5, 2.0)))
        assert measure_of(TWO_SYM, both) == pytest.approx(
            measure_of(TWO_SYM, b1) + measure_of(TWO_SYM, b2), abs=0.0)

    def test_circle_wrap(self):
        arc = BorelSetSpec("circle", ((5.8, 6.9),))  # wraps through 0
        assert measure_of(DELTA1_C, arc) == 1.0
        assert measure_of(CircleAtomicMeasure.from_atoms([(1.0, 1.0)]), arc) == 0.0

    def test_mask_matches_scalar_calls(self):
        # closed pieces, arcs given past 2 pi or below 0, angles any real
        xs = np.array([-7.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0, 6.9,
                       7.5, 13.0])
        for borel in (BorelSetSpec("line", ((0.0, 1.0), (2.0, 2.5))),
                      BorelSetSpec("circle", ((5.8, 6.9),)),
                      BorelSetSpec("circle", ((-1.0, 0.5), (2.0, 3.0)))):
            mask = borel.mask(xs.reshape(3, 4))
            assert mask.shape == (3, 4)
            assert mask.ravel().tolist() == [bool(borel.mask(x)) for x in xs]
        assert BorelSetSpec("line", ((0.0, 1.0),)).mask(1.0).shape == ()

    def test_space_mismatch(self):
        with pytest.raises(DomainError):
            measure_of(DELTA0, BorelSetSpec("circle", ((0.0, 1.0),)))


class TestCauchyLine:
    def test_delta_at_i(self):
        assert cauchy_transform_line(DELTA0, 1j) == 1j

    def test_delta_at_2(self):
        assert cauchy_transform_line(DELTA0, 2.0) == -0.5

    def test_two_atom_formula(self):
        # direct two-term summation: x/(1 - x^2)
        for x in (2.0, -3.0, 0.5, 10.0):
            direct = 0.5 / (-1.0 - x) + 0.5 / (1.0 - x)
            assert cauchy_transform_line(TWO_SYM, x) == pytest.approx(
                x / (1.0 - x * x), rel=1e-14)
            assert cauchy_transform_line(TWO_SYM, x) == pytest.approx(direct)

    def test_pole(self):
        with pytest.raises(PoleError):
            cauchy_transform_line(DELTA0, 0.0)

    @given(line_measures(), st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=-20.0, max_value=20.0))
    def test_herglotz_positivity(self, mu, y, x):
        assert cauchy_transform_line(mu, complex(x, y)).imag > 0.0


class TestCauchyDisk:
    def test_delta_center(self):
        assert cauchy_transform_disk(DELTA1_C, 0.0) == 1.0

    def test_delta_half(self):
        assert cauchy_transform_disk(DELTA1_C, 0.5) == 2.0

    def test_two_atom(self):
        for z in (0.3 + 0.2j, -0.5j, 0.7):
            assert cauchy_transform_disk(TWO_C, z) == pytest.approx(
                1.0 / (1.0 - z * z), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_transform_disk(DELTA1_C, 1.0 + 0j)

    def test_array_matches_scalar_bitwise(self, rng):
        nu = CircleAtomicMeasure.from_atoms(zip(rng.uniform(0, 6, 9),
                                                rng.uniform(0.1, 1, 9)))
        zs = (0.99 * np.sqrt(rng.uniform(0, 1, (4, 5)))
              * np.exp(1j * rng.uniform(0, 7, (4, 5))))
        got = cauchy_transform_disk(nu, zs)
        assert got.shape == zs.shape
        want = [[cauchy_transform_disk(nu, complex(z)) for z in row]
                for row in zs]
        assert np.array_equal(got, np.array(want))
        assert type(cauchy_transform_disk(nu, zs[0, 0])) is complex

    def test_array_domain(self):
        with pytest.raises(DomainError, match="not inside the unit disk"):
            cauchy_transform_disk(TWO_C, [0.0, 0.5j, -1.0, 0.3])

    @given(circle_measures())
    def test_center_is_total_mass(self, nu):
        assert cauchy_transform_disk(nu, 0.0) == pytest.approx(
            total_mass(nu), rel=1e-14)


class TestPoisson:
    """The Poisson integrals of a measure are the real part of its disk
    transform and the imaginary part of its line transform."""

    @given(circle_measures(), st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_poisson_cauchy_identity(self, nu, r, t):
        z = r * complex(math.cos(t), math.sin(t))
        m = np.asarray(nu.masses)
        lhs = np.sum(m * (1.0 - r * r) / np.abs(nu.points() - z) ** 2)
        rhs = 2.0 * cauchy_transform_disk(nu, z).real - total_mass(nu)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lhs))

    @given(line_measures(), st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=-20.0, max_value=20.0))
    def test_line_poisson_identity(self, mu, y, x):
        t, m = np.asarray(mu.positions), np.asarray(mu.masses)
        lhs = np.sum(m * y / ((t - x) ** 2 + y * y))
        rhs = cauchy_transform_line(mu, complex(x, y)).imag
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSimonWolff:
    def test_delta_probe_off(self):
        assert simon_wolff_integral(DELTA0, 1.0) == 1.0

    def test_delta_probe_at_atom(self):
        assert simon_wolff_integral(DELTA0, 0.0) == math.inf

    def test_two_atom(self):
        assert simon_wolff_integral(TWO_SYM, 0.0) == pytest.approx(1.0)

    @given(line_measures(), st.integers(min_value=0, max_value=5))
    def test_infinite_iff_atom(self, mu, k):
        y = mu.positions[k % len(mu)]
        assert simon_wolff_integral(mu, y) == math.inf
        off = y + 0.37  # off-atom by construction gap scale is fine generically
        if off not in mu.positions:
            assert math.isfinite(simon_wolff_integral(mu, off))

    def test_circle_values(self):
        assert simon_wolff_integral_circle(DELTA1_C, -1.0) == pytest.approx(0.25)
        assert simon_wolff_integral_circle(DELTA1_C, 1.0) == math.inf
        assert simon_wolff_integral_circle(TWO_C, 1j) == pytest.approx(0.5)

    def test_circle_domain(self):
        with pytest.raises(DomainError):
            simon_wolff_integral_circle(DELTA1_C, 0.5)
        with pytest.raises(DomainError):
            simon_wolff_integral_circle(DELTA1_C, complex(math.nan))

    def test_circle_unimodular_within_1e9(self):
        # the 1e-9 rule of every unimodular check, normalized as they are
        assert simon_wolff_integral_circle(DELTA1_C, -(1.0 + 5e-10)) == 0.25
        with pytest.raises(DomainError, match="not unimodular"):
            simon_wolff_integral_circle(DELTA1_C, -(1.0 + 5e-9))


class TestConstruction:
    def test_merge_close_atoms(self):
        mu = LineAtomicMeasure.from_atoms([(1.0, 0.25), (1.0 + 1e-14, 0.75)])
        assert len(mu) == 1
        assert mu.masses[0] == pytest.approx(1.0)
        # merged position is the heaviest contributor's
        assert mu.positions[0] == 1.0 + 1e-14

    def test_only_from_atoms_merges(self):
        # the constructor keeps strictly increasing atoms however close, so
        # a model's spectral measure has one atom per site
        model = CyclicOperatorModel.from_data("line", [0.0, 1e-14, 1.0],
                                              [0.3, 0.3, 0.4])
        assert len(spectral_measure(model)) == 3
        assert len(LineAtomicMeasure((0.0, 1e-14), (0.3, 0.3))) == 2
        assert len(LineAtomicMeasure.from_atoms([(0.0, 0.3), (1e-14, 0.3)])) == 1

    def test_non_herglotz_rejected(self):
        with pytest.raises(ConstructionError):
            LineAtomicMeasure((0.0,), (-1.0,))  # 1/z

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ConstructionError):
            LineAtomicMeasure.from_atoms([(0.0, 0.0)])

    def test_line_rejects_malformed(self):
        for positions, masses in [((0.0, 0.0), (0.5, 0.5)),
                                  ((1.0, 0.0), (0.5, 0.5)),
                                  ((0.0, math.inf), (0.5, 0.5)),
                                  ((math.nan,), (1.0,)),
                                  ((0.0,), (0.0,)),
                                  ((0.0,), (math.nan,)),
                                  ((0.0,), (math.inf,)),
                                  ((0.0, 1.0), (1.0,))]:
            with pytest.raises(ConstructionError):
                LineAtomicMeasure(positions, masses)

    def test_circle_rejects_malformed(self):
        for angles, masses in [((math.nan,), (1.0,)),
                               ((math.inf,), (1.0,)),
                               ((0.0,), (math.nan,)),
                               ((0.0,), (math.inf,)),
                               ((0.0,), (-1.0,)),
                               ((1.0, 0.0), (0.5, 0.5)),
                               ((0.0, 1.0), (1.0,))]:
            with pytest.raises(ConstructionError):
                CircleAtomicMeasure(angles, masses)

    def test_direct_construction_coerces_to_float(self):
        mu = LineAtomicMeasure((0, 1), (1, 2))
        nu = CircleAtomicMeasure((0,), (1,))
        for values in (mu.positions, mu.masses, nu.angles, nu.masses):
            assert all(type(v) is float for v in values)

    def test_circle_wraps_angles(self):
        nu = CircleAtomicMeasure.from_atoms([(-math.pi, 1.0)])
        assert nu.angles[0] == pytest.approx(math.pi)

    # -1e-17 % (2 pi) is 2 pi in binary64; every reduction maps it to 0.0
    @pytest.mark.parametrize("reduced", [
        lambda: CircleAtomicMeasure.from_atoms([(-1e-17, 1.0)]).angles,
        lambda: CyclicOperatorModel.from_data("circle", [-1e-17, 1.0],
                                              [0.5, 0.5]).sites,
        lambda: measure_from_json_dict(
            {"space": "circle", "atoms": [["-1e-17", "1.0"]]}).angles,
        lambda: _normalize_arc(-1e-17, 1.0),
    ], ids=["from_atoms", "from_data", "measure_from_json_dict",
            "normalize_arc"])
    def test_seam_wraps_to_zero(self, reduced):
        assert reduced()[0] == 0.0

    def test_circle_seam_merge(self):
        nu = CircleAtomicMeasure.from_atoms([(0.0, 0.5), (2.0 * math.pi - 1e-14, 0.5)])
        assert len(nu) == 1

    def test_borel_overlap_rejected(self):
        with pytest.raises(ConstructionError):
            BorelSetSpec("line", ((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(ConstructionError):
            BorelSetSpec("circle", ((0.0, 4.0), (3.0, 5.0)))

    @pytest.mark.parametrize("space, piece", [("line", (math.nan, 1.0)),
                                              ("line", (0.0, math.inf)),
                                              ("circle", (0.5, math.nan))])
    def test_borel_non_finite_rejected(self, space, piece):
        with pytest.raises(ConstructionError):
            BorelSetSpec(space, (piece,))

    def test_borel_lengths(self):
        assert BorelSetSpec("line", ((0.0, 1.0), (2.0, 2.5))).total_length() == 1.5
        assert BorelSetSpec("circle", ((5.8, 6.9),)).total_length() == pytest.approx(1.1)


class TestSerialization:
    def test_known_round_trip(self):
        mu = LineAtomicMeasure.from_atoms([(0.1, 1.0 / 3.0), (2.0, 5e-310)])
        text = measure_to_json(mu)
        back = measure_from_json(text)
        assert back.positions == mu.positions
        assert back.masses == mu.masses

    @given(st.one_of(line_measures(), circle_measures()))
    def test_bit_exact_round_trip(self, mu):
        back = measure_from_json(measure_to_json(mu))
        assert type(back) is type(mu)
        if isinstance(mu, LineAtomicMeasure):
            assert back.positions == mu.positions
        else:
            assert back.angles == mu.angles
        assert back.masses == mu.masses

    def test_malformed(self):
        with pytest.raises(ScenarioError):
            measure_from_json('{"space": "plane", "atoms": []}')

    def test_invariant_fault(self):
        # a well-formed object whose atom has no mass breaks the measure
        with pytest.raises(ConstructionError, match="mass must be positive"):
            measure_from_json('{"space": "line", "atoms": [["0.0", "0.0"]]}')
