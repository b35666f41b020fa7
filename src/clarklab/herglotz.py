"""Pole-form Herglotz transforms and finite Blaschke products.

Cauchy transforms of finite atomic measures are rational functions, and all
identities the verification suites check reduce to exact rational algebra.
A transform is held in pole form only, and a line measure is its own
transform in that form: the secular route takes and returns a
``LineAtomicMeasure``, whose atoms are the poles and whose masses are the
residues, and ``measures.cauchy_transform_line`` evaluates it.  Monomial
coefficients of high-degree node polynomials misrepresent their roots, so
none are formed: the zeros of an inner function are the eigenvalues of a
small matrix (Clark / Aleksandrov: the solutions of theta = alpha are the
spectrum of the alpha-perturbed operator).

Root finding is correctness-first, and one iteration serves every bracketed
root: ``_safeguarded_newton`` runs Newton on an increasing function, lets
the sign of each value shrink the root's bracket, replaces a step that
leaves the bracket by its midpoint, and stops each root on its own
tolerance.  Each root of the secular equation on the line has a bracket
known in closed form (the gap between two atoms, or an interval beside the
atoms sized by the total mass), and the iteration runs on the secular
function times the distances to the neighbouring atoms, which cancels
their poles, until the step is at rounding level.  The eigenvalue crossings
of a curve's staged unitary (``rankn._endpoint_crossings``) run it on a
monotone phase lift.  Boundary level sets of a Blaschke product are the
spectra of unitaries built from its unitary realization, polished by Newton
in the boundary angle (whose derivative is an explicit positive sum of
Poisson kernels) and checked against the branches of the boundary phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, DomainError, PoleError, ResidueError,
                     RootFindingError)
from .fields import _complexes, _field, _pair
from .measures import LineAtomicMeasure, _require_unimodular, _shaped_like


def cauchy_rational_line(mu: LineAtomicMeasure) -> LineAtomicMeasure:
    """Cauchy transform sum m_j/(t_j - z) of a line measure, in pole form.

    A line measure is its own transform in pole form, so this is the
    identity and mu is returned as it is; evaluate the transform with
    ``measures.cauchy_transform_line``.  It is kept only because perfbench's
    layer trace lists it.
    """
    return mu


# ---------------------------------------------------------------------------
# Finite Blaschke products
# ---------------------------------------------------------------------------

_BOUNDARY_CHECK_POINTS = 64


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product c * prod (z - z_j)/(1 - conj(z_j) z).

    All zeros strictly inside the unit disk, |c| = 1.  With this convention
    theta(0) = 0 exactly when some zero sits at the origin.
    """

    zeros: tuple[complex, ...]
    c: complex = 1.0 + 0.0j
    # the unitary realization, built by _realization on its first call and kept
    _realized: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "c", complex(self.c))
        for z in zeros:
            if not abs(z) <= 1.0 - 1e-12:
                raise ConstructionError(
                    f"Blaschke zero {z} not strictly inside the unit disk")
        if not abs(abs(self.c) - 1.0) <= 1e-12:
            raise ConstructionError(f"front constant {self.c} is not unimodular")
        if zeros:
            xi = np.exp(2j * np.pi * np.arange(_BOUNDARY_CHECK_POINTS)
                        / _BOUNDARY_CHECK_POINTS)
            vals = _blaschke_eval_array(zeros, self.c, xi)
            defect = np.max(np.abs(np.abs(vals) - 1.0))
            if defect > 1e-10:
                raise ConstructionError(
                    f"boundary modulus defect {defect:.3e} exceeds 1e-10")

    @property
    def degree(self) -> int:
        return len(self.zeros)


# 0 is not an anchor: theta(0) = 0 is common.
_ANCHORS = (0.37 + 0.11j, 0.21 - 0.33j, -0.29 + 0.17j, 0.05 + 0.41j)


def _blaschke_with_value(zeros, value_at) -> BlaschkeProduct:
    """The Blaschke product with these zeros whose value at the first anchor
    w0 clear of them is value_at(w0), up to normalizing |c| = 1."""
    zeros = np.asarray(zeros, dtype=complex)
    for w0 in _ANCHORS:
        if np.min(np.abs(zeros - w0)) > 1e-6:
            break
    else:
        raise ConstructionError("no anchor point clear of the Blaschke zeros")
    c = complex(value_at(w0)) / complex(_blaschke_eval_array(zeros, 1.0, w0))
    return BlaschkeProduct(tuple(zeros), c / abs(c))


def _blaschke_eval_array(zeros, c, z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, c, dtype=complex)
    for zj in zeros:
        out *= (z - zj) / (1.0 - np.conj(zj) * z)
    return out


def blaschke_eval(theta: BlaschkeProduct, z):
    """Evaluate theta at z (scalar or array).

    Well-defined on the closed disk; outside, raises PoleError exactly at a
    reflected zero 1/conj(z_j).
    """
    zarr = np.asarray(z, dtype=complex)
    for zj in theta.zeros:
        if zj != 0 and np.any(zarr * np.conj(zj) == 1.0):
            raise PoleError(f"evaluation at reflected zero 1/conj({zj})")
    return _shaped_like(z, _blaschke_eval_array(theta.zeros, theta.c, zarr))


def boundary_derivative_modulus(theta: BlaschkeProduct, xi):
    """|theta'| on the unit circle: sum_j (1 - |z_j|^2) / |xi - z_j|^2.

    This equals d/dt arg theta(e^{it}) and is strictly positive, which is
    why boundary level sets of a finite Blaschke product are always simple.
    """
    xiarr = np.asarray(xi, dtype=complex)
    out = np.zeros(xiarr.shape)
    for zj in theta.zeros:
        out += (1.0 - abs(zj) ** 2) / np.abs(xiarr - zj) ** 2
    return float(out) if xiarr.ndim == 0 else out


def _boundary_phase(theta: BlaschkeProduct, t):
    """A branch-free argument of theta(e^{it}) for real t (any array):
    arg c + N t - 2 sum_j arg(1 - conj(z_j) e^{it}).  Each arg in the sum
    stays in (-pi/2, pi/2), so the lift is continuous in t, increases by
    2 pi N over a period, and its derivative is |theta'|."""
    t = np.asarray(t, dtype=float)
    xi = np.exp(1j * t)
    phase = np.angle(theta.c) + theta.degree * t
    for zj in theta.zeros:
        phase = phase - 2.0 * np.angle(1.0 - np.conj(zj) * xi)
    return phase


def blaschke_to_json_dict(theta: BlaschkeProduct) -> dict:
    return {"zeros": [[z.real, z.imag] for z in theta.zeros],
            "c": [theta.c.real, theta.c.imag]}


def blaschke_from_json_dict(obj, where: str = "theta") -> BlaschkeProduct:
    """The product ``obj`` describes; a bad field raises ScenarioError."""
    zeros = _complexes(_field(obj, "zeros", where), f"{where}.zeros", empty=True)
    c = complex(*_pair(_field(obj, "c", where), f"{where}.c"))
    return BlaschkeProduct(tuple(zeros), c)


# Cap on the Newton steps of one root solve: a bracketed solve
# (``_safeguarded_newton``) or the polish of a level set
# (``level_set_batch``).  Each caller's postcondition decides whether a
# root that reached it is good enough.
_NEWTON_MAX_STEPS = 64

# Newton stops at |theta(xi) - alpha| <= max(1e-12, 4 eps (N + 2 pi |theta'|)):
# rounding of the N-factor product plus theta's change over one ulp of angle.
_LEVEL_SET_TOL = 1e-12


def _realization(theta: BlaschkeProduct) -> tuple:
    """theta(z) = D + z C (I - z A)^{-1} B with [[A, B], [C, D]] unitary, one
    unitary section per zero in stored order, as the parts the Clark
    unitaries take: A, the outer product B (c C) and c D.  Built once per
    theta and kept on it, read-only."""
    if theta._realized is None:
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
        bc = np.outer(b, theta.c * c)
        a_mat.flags.writeable = bc.flags.writeable = False
        object.__setattr__(theta, "_realized", (a_mat, bc, theta.c * d))
    return theta._realized


def _clark_unitaries(theta: BlaschkeProduct, alphas) -> np.ndarray:
    """Clark unitaries W(alpha) = A + B C / (alpha - D) at unimodular alphas,
    an (L, N, N) stack, from theta's realization (``_realization``)."""
    a_mat, bc, cd = _realization(theta)
    return a_mat + bc / (np.atleast_1d(alphas) - cd)[:, None, None]


def level_set_batch(theta: BlaschkeProduct, alphas) -> np.ndarray:
    """Boundary level sets {theta = alpha} for many alphas at once.

    Returns an (len(alphas), degree) array of unimodular points, each row
    sorted by angle.  theta(xi) = alpha exactly when conj(xi) is an
    eigenvalue of the Clark unitary W(alpha) (``_clark_unitaries``).  The
    eigenvalues are polished by Newton in the boundary angle, dividing by
    |theta'| > 0, for at most ``_NEWTON_MAX_STEPS`` steps; a polish that
    stalls raises RootFindingError.  The boundary phase arg c + N t - 2 sum_j
    arg(1 - conj(z_j) e^{it}) increases by 2 pi N over [0, 2 pi), so the
    sorted points must lie in N consecutive branches of it
    (``_boundary_phase``); a repeated or missing point raises
    RootFindingError.
    """
    if theta.degree == 0:
        raise DomainError("level sets need a nonconstant inner function")
    alphas = np.atleast_1d(_require_unimodular(alphas))
    t = -np.angle(np.linalg.eigvals(_clark_unitaries(theta, alphas)))

    n = theta.degree
    for _ in range(_NEWTON_MAX_STEPS):
        xi = np.exp(1j * t)
        vals = _blaschke_eval_array(theta.zeros, theta.c, xi)
        deriv = boundary_derivative_modulus(theta, xi)
        resid = np.abs(vals - alphas[:, None])
        floor = np.maximum(_LEVEL_SET_TOL, 4.0 * np.finfo(float).eps
                           * (n + 2.0 * math.pi * deriv))
        converged = resid <= floor
        if np.all(converged):
            break
        step = np.angle(np.conj(alphas)[:, None] * vals) / deriv
        t = t - np.where(converged, 0.0, step)
    else:
        worst = np.unravel_index(np.argmax(resid / floor), resid.shape)
        raise RootFindingError(
            f"degree-{n} level set at alpha = {alphas[worst[0]]:.6f}: Newton "
            f"polish stalled at residual {resid[worst]:.3e} "
            f"(floor {floor[worst]:.3e})")

    t = np.sort(t % (2.0 * math.pi), axis=1)
    xi = np.exp(1j * t)
    phase = _boundary_phase(theta, t) - np.angle(alphas)[:, None]
    branch = np.round(phase / (2.0 * math.pi))
    gaps = np.diff(branch, axis=1) != 1.0
    if np.any(gaps):
        row, k = np.argwhere(gaps)[0]
        raise RootFindingError(
            f"degree-{n} level set at alpha = {alphas[row]:.6f}: consecutive "
            f"points lie in phase branches {int(branch[row, k])} and "
            f"{int(branch[row, k + 1])}; each branch must hold one point")
    return xi


def _clark_atoms(theta: BlaschkeProduct, alphas
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Clark atoms of theta at many alphas: the level-set points and their
    masses 1/|theta'|, (L, degree) arrays with one row per alpha sorted by
    angle; a vanishing angular derivative raises ResidueError naming its
    alpha."""
    pts = level_set_batch(theta, alphas)
    deriv = boundary_derivative_modulus(theta, pts)
    flat = np.any(deriv < 1e-12, axis=1)
    if flat.any():
        alpha = np.atleast_1d(np.asarray(alphas, dtype=complex))[flat][0]
        raise ResidueError("vanishing angular derivative at a level-set point "
                           f"of alpha = {alpha:.6f}")
    return pts, 1.0 / deriv


# ---------------------------------------------------------------------------
# Secular equation on the line
# ---------------------------------------------------------------------------

def _line_pf(mu: LineAtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of a line Cauchy transform as float arrays."""
    if not mu.positions:
        raise DomainError("the transform of the zero measure has no poles")
    return np.asarray(mu.positions), np.asarray(mu.masses)


def _safeguarded_newton(fn, x, lo, hi, tol) -> np.ndarray:
    """Newton on an increasing function, entry by entry of flat arrays, each
    entry kept inside its bracket [lo, hi] around a root.

    ``fn(x, idx)`` returns the value and the slope at the points x of the
    entries ``idx``.  A negative value raises lo and a positive one lowers
    hi; a Newton step outside [lo, hi] (a zero slope included) is replaced
    by the bracket's midpoint.  An entry stops once its step is at most its
    ``tol`` (an array or one number), after at most ``_NEWTON_MAX_STEPS``
    steps.
    Returns the last iterates; it never raises, so each caller checks its
    own postcondition.
    """
    x, lo, hi = (np.array(a, dtype=float) for a in (x, lo, hi))
    tol = np.broadcast_to(tol, x.shape)
    todo = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            if not todo.size:
                break
            xs = x[todo]
            value, slope = fn(xs, todo)
            lo_t = lo[todo] = np.where(value < 0.0, xs, lo[todo])
            hi_t = hi[todo] = np.where(value > 0.0, xs, hi[todo])
            step = xs - value / slope
            inside = (step >= lo_t) & (step <= hi_t)
            x_t = x[todo] = np.where(inside, step, 0.5 * (lo_t + hi_t))
            todo = todo[np.abs(x_t - xs) > tol[todo]]
    return x


def _secular_targets(lams) -> tuple[np.ndarray, np.ndarray]:
    """Couplings as a float array with their secular targets -1/lam; a zero
    or non-finite coupling raises DomainError naming it."""
    lams = np.array(lams, dtype=float, ndmin=1)
    if not (np.isfinite(lams).all() and lams.all()):
        bad = lams[~np.isfinite(lams) | (lams == 0.0)][0]
        raise DomainError(f"coupling {bad} must be finite and nonzero")
    return lams, -1.0 / lams


def _secular_solve(t, m, targets) -> np.ndarray:
    """All N real roots of K(x) = target for each nonzero target, an (L, N)
    array with ascending rows: one root in each gap (t_j, t_{j+1}) and one
    outside the atoms.

    With M the total mass, M/(x - t_1) <= |K(x)| <= M/(x - t_N) above the
    atoms and the mirrored bounds below them give the outside root a closed
    bracket (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978): above for
    target < 0, below for target > 0.  Newton runs on
    h(x) = (x - a)(b - x)(K(x) - target), where a < root < b are the atoms
    next to the root (factor 1 where there is none): their terms enter h as
    -m_a (b - x) + m_b (x - a), so h has no pole in the bracket, and the
    sign of h is that of K - target.  Every root of every row runs
    ``_safeguarded_newton`` from its bracket's midpoint, independently of
    the others, until its step is at most 2 eps times the bracket's
    magnitude.  A root whose residual |K(x) - target| exceeds the
    attainable floor in binary64 raises RootFindingError, which names the
    atom the root coincides with when it has landed on one.
    """
    targets = np.array(targets, dtype=float, ndmin=1)
    n = t.size
    # Root k of a row lies above atom k, or above atom k - 1 when the row has
    # its outside root below the atoms (index -1: no atom below).
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
    eps = np.finfo(float).eps
    m_a, m_b = np.where(has_a, m[below], 0.0), np.where(has_b, m[above], 0.0)

    def h_and_slope(xs, idx):
        # A neighbour's pole is zeroed after the division.
        a, b, pa, pb = below[idx], above[idx], has_a[idx], has_b[idx]
        ma, mb, pos = m_a[idx], m_b[idx], np.arange(idx.size)
        recip = 1.0 / (t[None, :] - xs[:, None])
        recip[pos[pa], a[pa]] = 0.0
        recip[pos[pb], b[pb]] = 0.0
        rest = recip @ m - target[idx]
        rest_prime = np.square(recip, out=recip) @ m
        u = np.where(pa, xs - t[a], 1.0)
        v = np.where(pb, t[b] - xs, 1.0)
        return (u * v * rest - ma * v + mb * u,
                (pa * v - pb * u) * rest + u * v * rest_prime
                + ma * pb + mb * pa)

    x = _safeguarded_newton(h_and_slope, 0.5 * (lo + hi), lo, hi,
                            2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Attainable floor in binary64: summation noise plus the jump of K
        # across one ulp of root position (K' can be huge next to a pole).
        # A root on an atom has an infinite residual and fails.
        recip = 1.0 / (t[None, :] - x[:, None])
        resid = np.abs(recip @ m - target)
        kp = np.square(recip) @ m
        noise = eps * (32.0 * (np.abs(recip) @ m)
                       + 4.0 * kp * (1.0 + np.abs(x)))
        allowed = np.maximum(1e-12 * np.abs(target), noise)
        excess = np.where(np.isfinite(resid), resid - allowed, np.inf)
    if np.any(excess > 0.0):
        worst = int(np.argmax(excess))
        # the row's coupling is -1/target, to within an ulp of the caller's
        # (15 digits print it as given)
        root = (f"secular root at {x[worst]} for coupling "
                f"{-1.0 / target[worst]:.15g}")
        if np.isinf(resid[worst]):
            j = int(np.argmin(np.abs(t - x[worst])))
            gap = np.min(np.abs(np.delete(t, j) - t[j]), initial=np.inf)
            raise RootFindingError(
                f"{root} coincides with the atom at {t[j]} (gap {gap:.3e} to "
                "the next atom): the root is nearer to the atom than binary64 "
                "resolves")
        raise RootFindingError(
            f"{root} has residual {resid[worst]:.3e} "
            f"(allowed {allowed[worst]:.3e}); interlacing bracket "
            f"may be violated")
    return x.reshape(shape)


def _residue_masses(t, m, lams, roots) -> np.ndarray:
    """Masses 1/(lam^2 K'(x)) at an (L, N) array of secular roots, one row
    per coupling.  Every mass must be positive and finite, and each row
    must sum to the unperturbed total mass within 1e-10 (the cyclic
    vector's norm is conserved).  K' is a sum of positive terms, so it is
    accurate however small it is: a small K' only means a root far from
    the atoms, as the outside root is at a large coupling."""
    kp = np.sum(m / (t - roots[..., None]) ** 2, axis=-1)
    masses = 1.0 / (lams[:, None] ** 2 * kp)
    if not (np.isfinite(masses) & (masses > 0.0)).all():
        raise ResidueError("non-positive or non-finite residue mass")
    total = math.fsum(m)
    for lam, row in zip(lams, masses):
        defect = abs(math.fsum(row) - total)
        if defect > 1e-10 * max(1.0, total):
            raise ResidueError(f"residue masses miss total mass by "
                               f"{defect:.3e} at coupling {lam}")
    return masses


def _perturbed_atoms_line(mu: LineAtomicMeasure, lams
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of the rank-one perturbed measures at many couplings at once:
    the secular roots and their residue masses, (L, N) arrays with one
    ascending row per coupling."""
    t, m = _line_pf(mu)
    lams, targets = _secular_targets(lams)
    roots = _secular_solve(t, m, targets)
    return roots, _residue_masses(t, m, lams, roots)


def secular_roots_line(mu: LineAtomicMeasure, lam: float) -> np.ndarray:
    """All N real solutions of K(x) = -1/lam, sorted ascending, with K the
    Cauchy transform of mu.

    Exactly one root lies strictly between consecutive atoms; the remaining
    root sits above the top atom for lam > 0 and below the bottom atom for
    lam < 0, within a bracket of closed form.  Each root is found by Newton
    on the secular function times the distances to its neighbouring atoms,
    kept inside its bracket, to |K(x) + 1/lam| <= 1e-12 * |1/lam| (up to the
    evaluation noise floor of the transform itself).  A zero, infinite or
    NaN coupling raises DomainError.
    """
    t, m = _line_pf(mu)
    _, targets = _secular_targets(lam)
    return _secular_solve(t, m, targets)[0]


def residue_masses_line(mu: LineAtomicMeasure, lam: float, roots) -> np.ndarray:
    """Masses 1/(lam^2 K'(x)) of the perturbed measure at the secular roots.

    All masses are positive and must sum to the unperturbed total mass
    within 1e-10 (cyclic vector norm is conserved).  A zero, infinite or
    NaN coupling raises DomainError.
    """
    t, m = _line_pf(mu)
    lams, _ = _secular_targets(lam)
    roots = np.asarray(roots, dtype=float)
    return _residue_masses(t, m, lams, roots[None, :])[0]
