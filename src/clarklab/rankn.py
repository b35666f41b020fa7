"""Recursive rank-n unitary perturbations and analytic-curve checks.

A rank-n perturbation of a unitary is built recursively, one unimodular
parameter at a time, since a sum of rank-one unitary updates is not unitary;
every intermediate stage is checked for unitarity.  Each perturbation
vector is checked for cyclicity against the base operator when the family
is built; ``recursive_unitary`` also checks, stage by stage, that the next
vector is cyclic for the current operator (a lost cyclic vector would
silently invalidate every spectral identity downstream), while the staged
dense oracle behind every library check (``_staged_spectra``) checks
unitarity only.

For n = 2 the closed-form spectral transforms are available through the
model space of the base operator: with f the model-space function
corresponding to the second vector (and f(0) = 0, i.e. the two vectors
orthogonal), the second-stage transform is a Moebius update of
W = (g + alpha h)/(alpha - theta).  Along an analytic curve
xi -> (I_1(xi), I_2(xi)) the xi-average of these transforms is the value at
conj(I(0)) of a bounded antianalytic function, which yields the closed-form
density function phi; its positive boundary density is 2 Re(phi) - 1 (the
Poisson pairing -- for curves with I_k(0) = 0 this collapses to phi = 1).
General n is exercised through the recursive matrix construction and the
dense-matrix oracle only; no closed forms beyond n = 2 are guessed.

The xi-average of nu_{gamma(xi)}(B) is integrated between its jumps, the
xi at which an eigenvalue of the staged unitary crosses an endpoint of B.
The matrix determinant lemma reduces a crossing to a 2x2 determinant that
is affine in the second parameter, so the crossings of an endpoint are the
passes of one strictly increasing, branch-free phase through the multiples
of 2 pi (``_endpoint_crossings``).  They are hints: the dense oracle keeps
only those across which its count of atoms in B changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, CyclicityError, DomainError
from .fields import _complexes, _field, _list
from .herglotz import (BlaschkeProduct, _boundary_phase,
                       _require_unimodular, _safeguarded_newton, _shaped_like,
                       blaschke_eval, boundary_derivative_modulus)
from .measures import (BorelSetSpec, CircleAtomicMeasure, TWO_PI,
                       simon_wolff_integral_circle)
from .modelspace import (ModelSpace, ModelVector, _require_in_disk,
                         _transform_context, build_model_space, v_alpha)
from .rankone import (CyclicOperatorModel, _mass_inside, _unitary_eigenbasis,
                      _unitary_spectra, inner_from_unitary,
                      model_from_json_dict, rank_one_unitary_update,
                      spectral_measure, unitary_spectral_measure)
from .quadrature import integrate_line


@dataclass(frozen=True)
class AnalyticCurve:
    """Tuple of inner functions defining a curve on the n-torus."""

    components: tuple[BlaschkeProduct, ...]

    def __post_init__(self):
        if not self.components:
            raise ConstructionError("curve needs at least one component")
        for comp in self.components:
            if comp.degree < 1:
                raise ConstructionError("curve components must be nonconstant")

    @property
    def n(self) -> int:
        return len(self.components)


def curve_sample(curve: AnalyticCurve, xi) -> np.ndarray:
    """The torus point (I_1(xi), ..., I_n(xi)) for unimodular xi; for an
    array of xi, an array of points with one more axis, of length n."""
    xiarr = np.asarray(xi, dtype=complex)
    unit = _require_unimodular(xiarr.ravel())
    points = np.stack([blaschke_eval(c, unit) for c in curve.components],
                      axis=-1)
    defect = np.max(np.abs(np.abs(points) - 1.0), axis=-1)
    if np.any(defect > 1e-10):
        worst = int(np.argmax(defect))
        raise ConstructionError(f"curve point at xi = {unit[worst]:.6f} off "
                                f"the torus by {defect[worst]:.3e}")
    return points.reshape(xiarr.shape + (curve.n,))


CYCLIC_TOL = 1e-10


def is_cyclic(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Whether ``vector`` is cyclic for the unitary ``matrix`` (for every
    matrix of a stack): its eigenvalues are pairwise distinct and
    |q_j^H v| > CYCLIC_TOL ||v|| for every column q_j of an orthonormal
    eigenbasis (as in ``unitary_spectral_measure``).  A Krylov-matrix rank
    test would be conditioned like a Vandermonde matrix and fail from N of
    about 28."""
    evals, q = _unitary_eigenbasis(np.asarray(matrix, dtype=complex))
    v = np.asarray(vector, dtype=complex)
    return _cyclic_verdict(np.sort(np.angle(evals), axis=-1),
                           np.abs(np.swapaxes(q.conj(), -1, -2) @ v),
                           np.linalg.norm(v))


def _cyclic_verdict(angles, components, norm) -> bool:
    """Cyclicity read off sorted eigen-angles (last axis) and the vector's
    eigen-components: gaps, the seam included, above CYCLIC_TOL and every
    |component| above CYCLIC_TOL times the vector's norm."""
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + TWO_PI)
    return bool(np.min(gaps) > CYCLIC_TOL
                and np.min(components) > CYCLIC_TOL * norm)


@dataclass(frozen=True)
class RankNPerturbationFamily:
    """Base circle model plus n cyclic unit perturbation vectors.

    Vector entries are indexed against the model's (sorted) sites.
    """

    base: CyclicOperatorModel
    vectors: tuple

    def __post_init__(self):
        if self.base.kind != "circle":
            raise ConstructionError("rank-n families live over circle models")
        vecs = tuple(np.asarray(v, dtype=complex) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise ConstructionError("at least one perturbation vector required")
        # The base is diagonal: its eigen-angles are its sites and a
        # vector's eigen-components are its entries.
        sites = np.asarray(self.base.sites)
        for i, v in enumerate(vecs):
            if v.shape != (self.base.dimension,):
                raise ConstructionError(f"vector {i} has shape {v.shape}")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ConstructionError(f"vector {i} is not a unit vector")
            if not _cyclic_verdict(sites, np.abs(v), np.linalg.norm(v)):
                raise CyclicityError(f"vector {i} is not cyclic for the base")

    @property
    def n(self) -> int:
        return len(self.vectors)


def family_from_json_dict(obj, where: str = "family") -> RankNPerturbationFamily:
    """The family ``obj`` describes; a bad field raises ScenarioError."""
    base = model_from_json_dict(_field(obj, "base", where), f"{where}.base")
    vectors = _list(_field(obj, "vectors", where), f"{where}.vectors")
    return RankNPerturbationFamily(base, tuple(
        _complexes(v, f"{where}.vectors[{k}]") for k, v in enumerate(vectors)))


def _staged_unitaries(family: RankNPerturbationFamily, points,
                      check_cyclicity: bool = False) -> np.ndarray:
    """The staged rank-one updates U_{a^1}, ..., U_{a^n} for each row of an
    (L, n) array of parameters, as an (L, N, N) stack.

    Each stage perturbs along the next vector with respect to the *current*
    operator's inverse; every matrix is checked for unitarity (Frobenius
    defect at most 1e-10) at every stage, and with ``check_cyclicity`` the
    incoming vector for cyclicity.
    """
    points = np.asarray(points, dtype=complex)
    alphas = _require_unimodular(points)
    u = family.base.dense()
    eye = np.eye(family.base.dimension)
    for k, phi_k in enumerate(family.vectors):
        if check_cyclicity and k > 0 and not is_cyclic(u, phi_k):
            raise CyclicityError(f"vector {k} lost cyclicity at stage {k}")
        u = rank_one_unitary_update(u, phi_k, alphas[:, k])
        # Frobenius bounds the spectral norm from above: a stricter check
        defect = np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - eye,
                                axis=(-2, -1))
        if not np.all(defect <= 1e-10):
            raise ConstructionError(
                f"stage {k + 1} not unitary: defect {np.max(defect):.3e}")
    return u


def recursive_unitary(family: RankNPerturbationFamily, alphas,
                      check_cyclicity: bool = True) -> np.ndarray:
    """Apply the staged rank-one updates U_{a^1}, ..., U_{a^n}.

    Each stage perturbs along the next vector with respect to the *current*
    operator's inverse; unitarity and (optionally) cyclicity of the incoming
    vector are verified at every stage.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if alphas.shape != (family.n,):
        raise DomainError(f"expected {family.n} parameters, got {alphas.shape}")
    return _staged_unitaries(family, alphas[None, :], check_cyclicity)[0]


def spectral_measure_of_vector(matrix: np.ndarray, vector: np.ndarray
                               ) -> CircleAtomicMeasure:
    """Dense oracle: atoms at eigenvalue angles, masses |<v, eigvec>|^2."""
    return unitary_spectral_measure(matrix, vector)


def _staged_spectra(family: RankNPerturbationFamily, points, vector
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Dense oracle at an (L, n) array of parameter points: eigenvalue
    angles in [0, 2 pi) and the masses |<vector, eigvec>|^2, (L, N) arrays,
    of the staged unitaries; one stack and one stacked eigen-solve."""
    return _unitary_spectra(_staged_unitaries(family, points), vector)


def family_model_space(family: RankNPerturbationFamily
                       ) -> tuple[ModelSpace, ModelVector]:
    """Model space of the base operator plus the model-space function of
    the second perturbation vector.

    The base cyclic vector corresponds to the constant 1; vector entries
    divided by the cyclic-vector components give its boundary values at the
    base atoms.
    """
    theta = inner_from_unitary(family.base)
    ms = build_model_space(theta)
    w = np.asarray(family.base.weights)
    values = family.vectors[1] / np.sqrt(w)
    f = v_alpha(ms, 1.0, values, mu=spectral_measure(family.base))
    return ms, f


def _vanishing_context(ms: ModelSpace, vec: ModelVector):
    """The transform context of vec, which must have |f(0)| <= 1e-8."""
    ctx = _transform_context(ms, vec)
    if abs(ctx.f_at_zero) > 1e-8:
        raise DomainError(
            f"f(0) = {ctx.f_at_zero} must vanish (orthogonal second vector)")
    return ctx


def knu_alpha_beta(ms: ModelSpace, vec: ModelVector, alpha: complex,
                   beta: complex, z):
    """Two-parameter transform beta W / (1 + (beta - 1) W) at z, |z| < 1
    (a scalar or an array of points), with W = (g + alpha h)/(alpha - theta);
    requires f(0) = 0."""
    zarr = _require_in_disk(z)
    alpha = _require_unimodular(alpha)
    beta = _require_unimodular(beta)
    _, _, g, h, theta = _vanishing_context(ms, vec).values(zarr)
    w = (g + alpha * h) / (alpha - theta)
    return _shaped_like(z, beta * w / (1.0 + (beta - 1.0) * w))


def phi_density(ms: ModelSpace, vec: ModelVector, curve: AnalyticCurve, z):
    """Closed-form curve-average density function phi at z, |z| <= 1 (a
    scalar or an array of points).

    phi(z) = W0 / (conj(I2(0)) + (1 - conj(I2(0))) W0) with
    W0 = (conj(I1(0)) g + h)/(1 - conj(I1(0)) theta): the value at the
    origin of the bounded antianalytic xi-dependence of the two-parameter
    transform.  Analytic in z with |phi| <= 1/(1 - |I2(0)|); identically 1
    when both components vanish at the origin.
    """
    zarr = _require_in_disk(z, closed=True)
    if curve.n != 2:
        raise DomainError("closed-form density is available for 2-component curves")
    ctx = _vanishing_context(ms, vec)
    c1 = np.conj(blaschke_eval(curve.components[0], 0.0))
    c2 = np.conj(blaschke_eval(curve.components[1], 0.0))
    _, _, g, h, theta = ctx.values(zarr)
    w0 = (c1 * g + h) / (1.0 - c1 * theta)
    return _shaped_like(z, w0 / (c2 + (1.0 - c2) * w0))


def herglotz_positivity_check(ms: ModelSpace, vec: ModelVector, alphas,
                              zs) -> float:
    """Minimum of Re[(conj(alpha) g + h)/(1 - conj(alpha) theta)] over grids.

    The fraction is the transform of a probability measure, so the minimum
    must exceed 1/2 everywhere inside the open disk; it has poles on the
    circle, so a point with |z| >= 1 raises DomainError.
    """
    _, _, g, h, theta = _vanishing_context(ms, vec).values(
        _require_in_disk(zs))
    ca = np.conj(np.asarray(alphas, dtype=complex)).reshape((-1,) + (1,) * g.ndim)
    vals = (ca * g + h) / (1.0 - ca * theta)
    return float(np.min(vals.real, initial=math.inf))


@dataclass(frozen=True)
class CurveDisintegrationResult:
    average: float            # quadrature of the oracle measures over xi
    density_integral: float   # integral of the closed-form density over B
    quadrature_error: float

    @property
    def defect(self) -> float:
        return abs(self.average - self.density_integral)


_CROSSING_GRID = 16         # lift samples per expected crossing
_CROSSING_STEP = 1e-12      # a Newton step this short is the last one
_CROSSING_PROBE = 1e-9      # offset at which the dense oracle vets a hint


def _endpoint_crossings(family: RankNPerturbationFamily, curve: AnalyticCurve,
                        ends) -> np.ndarray:
    """Angles s in [0, 2 pi) at which e^{ib} is an eigenvalue of the staged
    unitary at the curve point gamma(e^{is}) of a two-vector family, for
    each endpoint b of ``ends`` (one angle or an array of them): a flat
    array, endpoint by endpoint in the given order.  Hints only, which the
    caller vets against the dense oracle.

    The staged unitary is U = (I + Phi M Phi*) U_0 with Phi = [phi_1 phi_2]
    and M = [[alpha - 1, 0], [(beta - 1)(alpha - 1) phi_2* phi_1, beta - 1]],
    so by the matrix determinant lemma det(U - lam) = det(U_0 - lam)
    det(I_2 + M G) with G = Phi* U_0 (U_0 - lam)^{-1} Phi, a 2x2 matrix.
    det(I_2 + M G) = P(alpha) + (beta - 1) Q(alpha) is affine in beta, so
    lam is an eigenvalue exactly when beta = (Q - P)/Q (alpha), a Moebius
    map of alpha; with alpha = I_1 and beta = I_2 the crossings are the
    angles where I_2 Q(I_1) / (Q - P)(I_1) = 1.  The argument of that
    quotient has a branch-free lift in s: the Blaschke lift of I_2 plus the
    arg of the two affine factors u_0 + u_1 alpha, each lifted through its
    larger coefficient.  The lift increases strictly, by 2 pi (d_1 + d_2)
    over a period; the crossings are its passes through multiples of 2 pi,
    bracketed on a grid and polished by ``_safeguarded_newton``, every
    endpoint in the same grid lift and the same Newton, each crossing
    stopping on its own.  An endpoint within 1e-8 of a base site, a factor
    with |u_0| ~ |u_1|, or a lift that does not rise by 2 pi (d_1 + d_2)
    gives no hints for that endpoint.
    """
    ends = np.atleast_1d(np.asarray(ends, dtype=float))
    sites = np.asarray(family.base.sites, dtype=float)
    offset = np.remainder(sites - ends[:, None] + math.pi, TWO_PI) - math.pi
    ends = ends[np.min(np.abs(offset), axis=1) > 1e-8]
    if not ends.size:
        return np.empty(0)
    base = np.exp(1j * sites)
    phi = np.column_stack(family.vectors)
    g = phi.conj().T @ ((base / (base - np.exp(1j * ends)[:, None]))[..., None]
                        * phi)
    k = np.vdot(phi[:, 1], phi[:, 0]) * g[:, 0, 1] + np.linalg.det(g)
    # the factors (u_0, u_1) of Q and Q - P, one row per factor and one
    # column per endpoint
    u0 = np.stack([g[:, 1, 1] - k, g[:, 1, 1] + g[:, 0, 0] - k - 1.0])
    u1 = np.stack([k, k - g[:, 0, 0]])
    keep = ~np.any(np.abs(np.abs(u0) - np.abs(u1))
                   <= 1e-8 * np.maximum(np.abs(u0), np.abs(u1)), axis=0)
    u0, u1 = u0[:, keep, None], u1[:, keep, None]
    # which coefficient is larger, and the arg of each
    factors = (u0, u1, np.abs(u1) > np.abs(u0), np.angle(u0), np.angle(u1))
    first, second = curve.components

    def lift(s, factors):
        # s broadcasts against the trailing axes of ``factors``: one column
        # per endpoint on the grid, one per crossing in the Newton
        u0, u1, big, arg0, arg1 = factors
        xi = np.exp(1j * s)
        arg_alpha = _boundary_phase(first, s)
        u1_alpha = u1 * np.exp(1j * arg_alpha)
        # both ratios are formed; a zero coefficient only feeds the one
        # that is not taken
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(big, u0 / u1_alpha, u1_alpha / u0)
        arg = np.where(big, arg1 + arg_alpha, arg0) + np.angle(1.0 + ratio)
        drift = (boundary_derivative_modulus(first, xi)
                 * (u1_alpha / (u0 + u1_alpha)).real)
        # Q enters the quotient's argument with +, Q - P with -
        return (_boundary_phase(second, s) + arg[0] - arg[1],
                boundary_derivative_modulus(second, xi) + drift[0] - drift[1])

    count = first.degree + second.degree
    grid = np.linspace(0.0, TWO_PI, _CROSSING_GRID * count + 1)
    values, _ = lift(grid, factors)
    rise = values[:, -1] - values[:, 0]
    rows = np.flatnonzero((np.abs(rise - TWO_PI * count) <= 1e-6)
                          & np.all(np.diff(values, axis=1) > 0.0, axis=1))
    values = values[rows]
    targets = TWO_PI * (np.ceil(values[:, :1] / TWO_PI) + np.arange(count))
    # the last grid value at or below each target (searchsorted, side
    # "right"); a crossing at s = 0 can round its target just outside the
    # grid, and the clipped end bracket then converges onto that end
    j = np.clip(np.count_nonzero(values[:, :, None] <= targets[:, None, :],
                                 axis=1) - 1, 0, grid.size - 2)
    below = np.take_along_axis(values, j, axis=1)
    above = np.take_along_axis(values, j + 1, axis=1)
    lo, hi = grid[j], grid[j + 1]
    s = lo + (hi - lo) * (targets - below) / (above - below)
    # one column per crossing, endpoint by endpoint as s.ravel() orders them
    factors = [np.repeat(f[:, rows, 0], count, axis=1) for f in factors]
    targets = targets.ravel()

    def shifted_lift(s, idx):
        value, slope = lift(s, [f[:, idx] for f in factors])
        return value - targets[idx], slope

    s = _safeguarded_newton(shifted_lift, s.ravel(), lo.ravel(), hi.ravel(),
                            _CROSSING_STEP)
    return s % TWO_PI


def _curve_breakpoints(family: RankNPerturbationFamily, curve: AnalyticCurve,
                       borel: BorelSetSpec) -> list[float]:
    """The angles s in [0, 2 pi) where xi -> nu_{gamma(xi)}(B) jumps: the
    crossings of B's endpoints (``_endpoint_crossings``, all endpoints in
    one call) at which the dense oracle's count of atoms in B differs
    between s -/+ 1e-9, in one stacked call.  A hint that fails that check
    is dropped."""
    ends = sorted({float(x) % TWO_PI for piece in borel.pieces for x in piece})
    hints = _endpoint_crossings(family, curve, ends)
    if not hints.size:
        return []
    probes = np.concatenate([hints - _CROSSING_PROBE, hints + _CROSSING_PROBE])
    angles, _ = _staged_spectra(
        family, curve_sample(curve, np.exp(1j * probes)), family.vectors[1])
    inside = np.count_nonzero(borel.mask(angles), axis=-1)
    return sorted(hints[inside[:hints.size] != inside[hints.size:]].tolist())


def curve_disintegration_check(family: RankNPerturbationFamily,
                               curve: AnalyticCurve, borel: BorelSetSpec,
                               tol: float = 1e-4) -> CurveDisintegrationResult:
    """Compare the xi-average of nu_{gamma(xi)}(B) with the density integral.

    Left side: adaptive quadrature over xi of the dense-oracle spectral
    measure of the second vector for the staged perturbation at gamma(xi),
    built and diagonalized for all the nodes of a quadrature refinement
    round at once (one stacked eigen-solve, with the unitarity check of
    every stage and the torus check of every curve point).  Its breakpoints
    are the jumps of the integrand, the eigenvalue crossings of B's
    endpoints (``_curve_breakpoints``): found from a 2x2 determinant and a
    monotone lift, and never trusted until the dense oracle's count of
    atoms in B changes across them.  The integrand's values come from the
    dense oracle only, so the left side shares nothing with the closed form
    it judges.  A dropped hint leaves a jump inside a panel, where GK15's
    error estimate is no bound: it can report less error than it makes.
    Right side: the integral over B of the positive boundary density
    2 Re(phi) - 1 of the averaged measure (the real/Poisson pairing of the
    closed-form phi; equal to phi when the curve passes through the origin
    of the torus, where phi = 1).
    """
    if family.n != 2 or curve.n != 2:
        raise DomainError("curve disintegration check is the n = 2 harness")
    if borel.space != "circle":
        raise DomainError("needs a circle Borel set")
    ms, f = family_model_space(family)
    phi2 = family.vectors[1]

    def lhs_integrand(s_arr: np.ndarray) -> np.ndarray:
        angles, masses = _staged_spectra(
            family, curve_sample(curve, np.exp(1j * s_arr)), phi2)
        return _mass_inside(masses, borel.mask(angles))

    lhs, err1 = integrate_line(lhs_integrand, 0.0, TWO_PI,
                               tol=0.25 * tol * TWO_PI,
                               breakpoints=_curve_breakpoints(family, curve,
                                                              borel))

    def rhs_integrand(s_arr: np.ndarray) -> np.ndarray:
        vals = phi_density(ms, f, curve, np.exp(1j * np.asarray(s_arr)))
        return 2.0 * vals.real - 1.0

    rhs = 0.0
    err2 = 0.0
    for s, e in borel.pieces:
        v, er = integrate_line(rhs_integrand, s, s + (e - s),
                               tol=0.25 * tol * TWO_PI / max(1, len(borel.pieces)))
        rhs += v
        err2 += er
    return CurveDisintegrationResult(average=lhs / TWO_PI,
                                     density_integral=rhs / TWO_PI,
                                     quadrature_error=(err1 + err2) / TWO_PI)


def theorem4_axis_criterion(family: RankNPerturbationFamily, probes
                            ) -> list[dict]:
    """Per-coordinate pure-point criterion on the base spectral measures.

    For each perturbation vector, evaluates the circle second-moment
    integral of its base spectral measure at each unimodular probe; at
    finite rank the integral is finite exactly off the atoms.
    """
    angles = np.asarray(family.base.sites)
    out = []
    for k, phi_k in enumerate(family.vectors):
        mu_k = CircleAtomicMeasure.from_atoms(zip(angles, np.abs(phi_k) ** 2))
        records = []
        for probe in probes:
            val = simon_wolff_integral_circle(mu_k, probe)
            records.append({"probe": complex(probe), "value": val,
                            "finite": math.isfinite(val)})
        out.append({"vector": k, "records": records})
    return out


def theorem9_nullset_check(family: RankNPerturbationFamily,
                           curve: AnalyticCurve, null_angles,
                           xi_angles) -> dict:
    """Generic-position check: no atom of nu_{gamma(xi)} may fall on the
    finite null set E, for any sampled xi.

    Returns a report listing every (xi, atom, null point) collision within
    1e-9 in angle; an empty violation list is a pass.
    """
    if family.n != curve.n:
        raise DomainError("family and curve ranks differ")
    null_angles = [float(a) % TWO_PI for a in null_angles]
    xi_angles = [float(s) for s in xi_angles]
    all_angles, all_masses = _staged_spectra(
        family, curve_sample(curve, np.exp(1j * np.array(xi_angles))),
        family.vectors[-1])
    violations = []
    for s, angles, masses in zip(xi_angles, all_angles, all_masses):
        nu = CircleAtomicMeasure.from_atoms(zip(angles, masses))
        for atom in nu.angles:
            for e in null_angles:
                dist = abs(math.remainder(atom - e, TWO_PI))
                if dist <= 1e-9:
                    violations.append({"xi_angle": float(s), "atom": float(atom),
                                       "null_point": float(e), "distance": dist})
    return {"checked": len(xi_angles), "violations": violations,
            "pass": not violations}
