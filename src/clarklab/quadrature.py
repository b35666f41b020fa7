"""Deterministic quadrature engine.

One scheme serves both geometries the verification suites need:
``integrate_line`` is adaptive bisection driven by a Gauss (7) / Kronrod (15)
pair on each subinterval, with optional breakpoints so that known jump
locations of an integrand never sit inside a panel.  ``integrate_circle``
is the same driver on [0, 2*pi] with its breakpoints reduced mod 2*pi.

Integrands take the whole array of nodes of a panel and return the array
of values, so a costly integrand (a secular solve, a dense eigen-solve)
runs once per panel on a batch of nodes rather than once per node.

Everything is deterministic: panel refinement order depends only on computed
error estimates and insertion order, never on timing or hashing.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1].  The Kronrod nodes
# contain the Gauss-7 nodes at odd indices.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full symmetric node/weight tables.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.zeros_like(_KRONROD_W)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """One GK15 panel: returns (Kronrod value, |Kronrod - Gauss|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    ik = half * float(_KRONROD_W @ y)
    ig = half * float(_GAUSS_W @ y)
    return ik, abs(ik - ig)


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    breakpoints: Sequence[float] = (),
    max_panels: int = 4000,
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] adaptively to absolute tolerance ``tol``.

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape.  ``breakpoints`` are interior points where ``f`` is known to
    be non-smooth; panels never straddle them.  Returns ``(value, err)``
    where ``err`` is the a-posteriori estimate; raises QuadratureError if
    the estimate cannot be pushed below ``tol`` within ``max_panels``.
    """
    if tol <= 0.0:
        raise QuadratureError("tolerance must be positive")
    if a == b:
        return 0.0, 0.0
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]

    # Max-heap on panel error; the counter makes heap order deterministic.
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        ik, err = _panel(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, ik))
        counter += 1

    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            break
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"line quadrature stalled at error {total_err:.3e} > {tol:.3e} "
                f"with {len(heap)} panels on [{a}, {b}]"
            )
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                f"panel [{lo}, {hi}] cannot be split further (error {total_err:.3e})"
            )
        for seg in ((lo, mid), (mid, hi)):
            ik, err = _panel(f, *seg)
            heapq.heappush(heap, (-err, counter, seg[0], seg[1], ik))
            counter += 1

    value = math.fsum(item[4] for item in heap)
    err = -math.fsum(item[0] for item in heap)
    return value, err


def integrate_circle(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate ``f(s)`` over s in [0, 2*pi) with ``integrate_line``.

    ``breakpoints`` are angles (any real; reduced mod 2*pi) where ``f``
    jumps; no panel straddles one, and since the GK15 nodes are interior no
    node lands on one.  Returns the integral with respect to ds (divide by
    2*pi for normalized arc length).
    """
    two_pi = 2.0 * math.pi
    return integrate_line(f, 0.0, two_pi, tol=tol,
                          breakpoints=[float(s) % two_pi for s in breakpoints])
