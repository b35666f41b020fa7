import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from clarklab import modelspace
from clarklab.measures import CircleAtomicMeasure, LineAtomicMeasure

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.register_profile("fast", max_examples=15, deadline=None)
hypothesis.settings.load_profile("default")

# Tame atom configurations: separated positions, non-degenerate masses, so
# contracts stated for well-separated spectra are exercised as intended.
_mass = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


@st.composite
def line_measures(draw, max_atoms=6, span=10.0):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    gaps = draw(st.lists(st.floats(min_value=1e-2, max_value=3.0), min_size=n,
                         max_size=n))
    start = draw(st.floats(min_value=-span, max_value=span))
    positions = start + np.cumsum(gaps)
    masses = draw(st.lists(_mass, min_size=n, max_size=n))
    return LineAtomicMeasure.from_atoms(zip(positions, masses))


@st.composite
def circle_measures(draw, max_atoms=6):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    raw = draw(st.lists(st.floats(min_value=1e-2, max_value=1.0), min_size=n,
                        max_size=n))
    angles = 2.0 * np.pi * np.cumsum(raw) / (np.sum(raw) + 0.5)
    masses = draw(st.lists(_mass, min_size=n, max_size=n))
    return CircleAtomicMeasure.from_atoms(zip(angles, masses))


@st.composite
def unimodular(draw):
    t = draw(st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True))
    return complex(np.exp(1j * t))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance PASS/FAIL lines even when stdout is captured."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def split_calls(monkeypatch):
    """The Lemma 7 splits, the calls of modelspace._split made through its
    module (lemma7_decompose and the transform context both split there)."""
    calls = []
    original = modelspace._split

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(modelspace, "_split", counted)
    return calls
