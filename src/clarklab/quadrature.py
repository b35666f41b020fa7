"""Deterministic quadrature engine.

One scheme serves both geometries the verification suites need:
``integrate_line`` is adaptive bisection driven by a Gauss (7) / Kronrod (15)
pair on each subinterval, with optional breakpoints so that known jump
locations of an integrand never sit inside a panel.  ``integrate_circle``
is the same driver on [0, 2*pi] with its breakpoints reduced mod 2*pi.

Integrands take an array of nodes and return the array of values.
``integrate_line`` makes one call per refinement round, on the nodes of
every panel the round creates (Shampine, J. Comput. Appl. Math. 211,
2008), and keeps the global error control of QUADPACK.

Everything is deterministic: panel refinement order depends only on computed
error estimates and insertion order, never on timing or hashing.
"""

from __future__ import annotations

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


# Panels one integrate_line call may hold before it gives up.
_MAX_PANELS = 4000


def _gk15(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 on each panel [lo, hi] with one call of ``f`` on all their
    nodes: returns (Kronrod values, |Kronrod - Gauss|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    ik = half * (y @ _KRONROD_W)
    return ik, np.abs(ik - half * (y @ _GAUSS_W))


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] adaptively to absolute tolerance ``tol``.

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape.  ``breakpoints`` are interior points where ``f`` is known to
    be non-smooth; panels never straddle them.  For a > b the result over
    [b, a] is negated.  Returns ``(value, err)`` where ``err`` is the
    a-posteriori estimate; raises QuadratureError if the estimate cannot be
    pushed below ``tol`` within ``_MAX_PANELS`` panels.
    """
    if not tol > 0.0:
        raise QuadratureError("tolerance must be positive")
    if a == b:
        return 0.0, 0.0
    if a > b:
        value, err = integrate_line(f, b, a, tol, breakpoints)
        return -value, err
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b],
                   dtype=float)
    # Rows (lo, hi, Kronrod value, error) in insertion order: a round
    # deletes the panels it splits and appends their children.
    panels = np.column_stack([pts[:-1], pts[1:], *_gk15(f, pts[:-1], pts[1:])])
    while True:
        err = panels[:, 3]
        total_err = math.fsum(err)
        if total_err <= tol:
            return math.fsum(panels[:, 2]), total_err
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"line quadrature stalled at error {total_err:.3e} > {tol:.3e} "
                f"with {len(panels)} panels on [{a}, {b}]"
            )
        # Split the fewest worst panels whose removal leaves at most tol of
        # error; the stable sort breaks ties by insertion order.
        order = np.argsort(-err, kind="stable")
        count = np.count_nonzero(total_err - np.cumsum(err[order]) > tol) + 1
        split = order[:min(count, _MAX_PANELS - len(panels))]
        lo, hi = panels[split, 0], panels[split, 1]
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        if stuck.any():
            j = int(np.argmax(stuck))
            raise QuadratureError(f"panel [{lo[j]}, {hi[j]}] cannot be split "
                                  f"further (error {total_err:.3e})")
        clo = np.column_stack([lo, mid]).ravel()
        chi = np.column_stack([mid, hi]).ravel()
        panels = np.concatenate([np.delete(panels, split, axis=0),
                                 np.column_stack([clo, chi, *_gk15(f, clo, chi)])])


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
