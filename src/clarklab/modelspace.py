"""Finite-dimensional model space of a Blaschke product and its operators.

For a degree-N Blaschke product theta, the model space (the orthogonal
complement of theta * H^2 in H^2) is N-dimensional and carries the
compressed shift.  The basis used throughout is the Takenaka-Malmquist
orthonormal system built from theta's zeros in their stored order,

    e_k(z) = sqrt(1-|z_k|^2)/(1-conj(z_k) z) * prod_{j<k} (z-z_j)/(1-conj(z_j) z),

which is orthonormal in closed form (repeated zeros give the confluent
variant automatically) and reduces to the monomials {1, z, ..., z^{N-1}}
when theta = z^N.

Inner products need no boundary grid.  With Theta = theta^2 (degree 2N),
Clark's theorem makes the normalized boundary kernels at a level set
{Theta = beta} an orthonormal basis of K_Theta, with ||k_eta||^2 = |Theta'(eta)|
(D. Clark, J. Anal. Math. 25, 1972).  So the 2N-node quadrature
<p, q> = sum_eta p(eta) conj(q(eta)) / |Theta'(eta)| is exact for p, q in
K_Theta.  That covers every use here: K_theta, theta * K_theta and the
product of two elements of K_theta all lie in K_Theta.  Theta is never
formed: the nodes {Theta = -1} are theta's level sets at i and -i, and the
weights, with |Theta'| = 2 |theta'|, half theta's Clark masses there.  The
basis Gram matrix is verified to be the identity there at construction.

The operator content:

* ``t_alpha_matrix``   -- the unitary rank-one perturbations of the
  compressed shift, parametrized by a unimodular alpha (theta(0) = 0
  required; the formula is not valid otherwise and no generalization is
  guessed);
* ``v_alpha`` / ``v_alpha_star`` -- the Clark operator from L^2 of a Clark
  measure onto the model space (ratio of transforms) and its adjoint
  (boundary evaluation at the atoms);
* ``hat_conjugate``    -- f -> theta * conj(f) on the boundary, an
  involution on {f : f(0) = 0};
* ``lemma7_decompose`` -- split f0 * hat(f0) = g + theta h with g, h in the
  model space (exact at finite degree: the product lies in the double space,
  which is the orthogonal sum of the space and theta times it);
* ``knu_alpha``        -- the closed-form transform of |f|^2 d(mu_alpha)
  assembled from g, h and the hat data.

The transforms of one vector f share everything but the evaluation point:
f(0) and the coefficients of f0, hat(f0), g and h are computed (and the
split verified) once per (space, vector), kept on the model space, and each
transform then costs one Takenaka-Malmquist pass over an array of points.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError, ResidueError
from .herglotz import (BlaschkeProduct, _clark_atoms, _clark_unitaries,
                       _require_unimodular, _shaped_like, blaschke_eval,
                       blaschke_to_json_dict)
from .measures import CircleAtomicMeasure, TWO_PI
from .rankone import clark_measure

GRAM_TOL = 1e-10


def theta_fingerprint(theta: BlaschkeProduct) -> str:
    """Stable hash of the Blaschke data; guards vectors against basis mismatch."""
    payload = json.dumps(blaschke_to_json_dict(theta), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _tm_pass(zeros, z) -> tuple[np.ndarray, np.ndarray]:
    """Takenaka-Malmquist basis values and the running products
    prod_{j<=k} (z - z_j)/(1 - conj(z_j) z), both of shape (N,) + shape(z);
    the last running product is theta(z) / c."""
    zarr = np.asarray(z, dtype=complex)
    a = np.asarray(zeros, dtype=complex).reshape((-1,) + (1,) * zarr.ndim)
    den = 1.0 - np.conj(a) * zarr
    running = np.cumprod((zarr - a) / den, axis=0)
    basis = np.sqrt(1.0 - np.abs(a) ** 2) / den
    basis[1:] *= running[:-1]
    return basis, running


def tm_basis_values(zeros: tuple[complex, ...], z) -> np.ndarray:
    """Takenaka-Malmquist basis values, shape (N,) + shape(z)."""
    return _tm_pass(zeros, z)[0]


@dataclass(frozen=True)
class ModelSpace:
    """Immutable model-space context: basis data at the Clark nodes."""

    theta: BlaschkeProduct
    fingerprint: str
    grid: np.ndarray          # (2N,) nodes {theta = i} u {theta = -i}
    weights: np.ndarray       # (2N,) 1 / (2 |theta'|): half the Clark masses
    basis: np.ndarray         # (N, 2N) TM basis values at the nodes
    theta_values: np.ndarray  # (2N,) theta at the nodes
    basis_at_zero: np.ndarray  # (N,)
    # _TransformContext per ModelVector, filled by _transform_context
    _contexts: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def project(self, f_vals: np.ndarray) -> np.ndarray:
        """Coefficients <f, e_k> from the values of f at the nodes; exact
        for f in the model space of theta^2."""
        return self.basis.conj() @ (self.weights * f_vals)

    def vector(self, coeffs) -> "ModelVector":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.dimension,):
            raise ConstructionError(
                f"expected {self.dimension} coefficients, got {coeffs.shape}")
        return ModelVector(tuple(coeffs), self.fingerprint)

    def constant_one(self) -> "ModelVector":
        """The constant function 1 (lies in the space since theta(0) = 0)."""
        return self.vector(np.conj(self.basis_at_zero))

    def coefficients(self, vec: "ModelVector") -> np.ndarray:
        if vec.space_fingerprint != self.fingerprint:
            raise DomainError("model vector belongs to a different space")
        return np.asarray(vec.coeffs, dtype=complex)

    def boundary_values(self, vec: "ModelVector") -> np.ndarray:
        return self.coefficients(vec) @ self.basis

    def eval_vector(self, vec: "ModelVector", z):
        vals = tm_basis_values(self.theta.zeros, z)
        return _shaped_like(z, np.tensordot(self.coefficients(vec), vals,
                                            axes=(0, 0)))


@dataclass(frozen=True)
class ModelVector:
    """Element of a model space, stored as TM-basis coefficients.

    The fingerprint ties the coefficients to the generating Blaschke data.
    """

    coeffs: tuple[complex, ...]
    space_fingerprint: str

    def norm(self) -> float:
        return math.sqrt(math.fsum(abs(c) ** 2 for c in self.coeffs))


def build_model_space(theta: BlaschkeProduct) -> ModelSpace:
    """Construct the model space of theta with a verified orthonormal basis.

    The nodes and weights are the Clark measure of theta^2 at -1, the mean
    of theta's own at i and -i: the level sets {theta = +-i} sorted by angle,
    with half the masses 1/|theta'| (Clark's theorem; see the module doc)."""
    if theta.degree < 1:
        raise DomainError("model space needs a nonconstant inner function")
    points, masses = (a.ravel() for a in _clark_atoms(theta, [1j, -1j]))
    order = np.argsort(np.angle(points) % TWO_PI)
    nodes, weights = points[order], 0.5 * masses[order]
    basis = tm_basis_values(theta.zeros, nodes)
    gram = (basis * weights) @ basis.conj().T
    defect = float(np.max(np.abs(gram - np.eye(theta.degree))))
    if defect > GRAM_TOL:
        raise ConstructionError(
            f"basis Gram defect {defect:.3e} > {GRAM_TOL} in the Clark quadrature")
    at_zero = tm_basis_values(theta.zeros, np.array(0.0 + 0.0j))
    return ModelSpace(theta=theta, fingerprint=theta_fingerprint(theta),
                      grid=nodes, weights=weights, basis=basis,
                      theta_values=blaschke_eval(theta, nodes),
                      basis_at_zero=at_zero.reshape(-1))


def _require_theta_vanishes_at_zero(ms: ModelSpace):
    t0 = blaschke_eval(ms.theta, 0.0)
    if abs(t0) > 1e-10:
        raise DomainError(f"theta(0) = {t0} must vanish for this operation")


def t_alpha_matrix(ms: ModelSpace, alpha: complex) -> np.ndarray:
    """Matrix of the unitary rank-one perturbation of the compressed shift.

    f -> z*(f - (f, theta/z) theta/z) + (f, theta/z) alpha in the TM basis.
    Requires theta(0) = 0 (so theta/z and the constants live in the space).
    In the TM basis this is the conjugate of theta's Clark unitary
    W(alpha) = A + B C / (alpha - D); its eigenvalues are the level set
    {theta = alpha}.
    """
    _require_theta_vanishes_at_zero(ms)
    t = np.conj(_clark_unitaries(ms.theta, _require_unimodular(alpha))[0])
    # Frobenius bounds the spectral norm from above: a stricter check
    defect = np.linalg.norm(t.conj().T @ t - np.eye(ms.dimension), "fro")
    if defect > 1e-10:
        raise ConstructionError(
            f"perturbed shift is not unitary: defect {defect:.3e}")
    return t


def v_alpha(ms: ModelSpace, alpha: complex, values_at_atoms,
            mu: CircleAtomicMeasure | None = None) -> ModelVector:
    """Clark operator: values of f at the atoms of mu_alpha -> model vector.

    The image is K(f mu_alpha) / K(mu_alpha) = sum_j f_j m_j k_j with the
    reproducing kernel k_j(z) = (1 - conj(alpha) theta(z)) / (1 - conj(xi_j) z)
    of the model space at the atom xi_j, whose TM coefficients are
    conj(e_k(xi_j)).
    """
    alpha = complex(alpha)
    mu = mu if mu is not None else clark_measure(ms.theta, alpha)
    vals = np.asarray(values_at_atoms, dtype=complex)
    if vals.shape != (len(mu),):
        raise DomainError(f"expected {len(mu)} atom values, got {vals.shape}")
    kernels = np.conj(tm_basis_values(ms.theta.zeros, mu.points()))
    return ms.vector(kernels @ (vals * np.asarray(mu.masses)))


def v_alpha_star(ms: ModelSpace, alpha: complex, vec: ModelVector,
                 mu: CircleAtomicMeasure | None = None) -> np.ndarray:
    """Adjoint Clark operator: boundary values of the vector at the atoms."""
    mu = mu if mu is not None else clark_measure(ms.theta, complex(alpha))
    return ms.eval_vector(vec, mu.points())


def intertwine_check(ms: ModelSpace, alpha: complex) -> float:
    """Spectral-norm residual of T_alpha = V_alpha Y_alpha V_alpha^*.

    Y_alpha is multiplication by the atom positions on L^2(mu_alpha).  The
    Clark operator sends the normalized point mass at the atom xi_j to the
    normalized kernel sqrt(m_j) k_j (see ``v_alpha``), so its matrix has
    columns sqrt(m_j) conj(e_k(xi_j)).
    """
    return _intertwine_residual(ms, clark_measure(ms.theta, alpha),
                                t_alpha_matrix(ms, alpha))


def _intertwine_residual(ms: ModelSpace, mu: CircleAtomicMeasure,
                         t: np.ndarray) -> float:
    """``intertwine_check`` from the Clark measure and T_alpha at one alpha."""
    n = ms.dimension
    if len(mu) != n:
        raise ResidueError(f"Clark measure has {len(mu)} atoms, expected {n}")
    v_mat = (np.conj(tm_basis_values(ms.theta.zeros, mu.points()))
             * np.sqrt(np.asarray(mu.masses)))
    y = np.diag(mu.points())
    return float(np.linalg.norm(t - v_mat @ y @ v_mat.conj().T, 2))


def hat_conjugate(ms: ModelSpace, vec: ModelVector) -> ModelVector:
    """The conjugate-linear involution f -> theta * conj(f) on {f(0) = 0}."""
    f0 = ms.eval_vector(vec, 0.0)
    if abs(f0) > 1e-10:
        raise DomainError(f"hat conjugation needs f(0) = 0, got {f0}")
    f_vals = ms.boundary_values(vec)
    return ms.vector(ms.project(ms.theta_values * np.conj(f_vals)))


# Deterministic boundary samples for residual checks: a golden-angle
# sequence, independent of the Clark nodes the projections are computed at.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _offgrid_samples() -> np.ndarray:
    angles = (0.7391 + TWO_PI * _GOLDEN * np.arange(64)) % TWO_PI
    return np.exp(1j * angles)


@dataclass(frozen=True)
class _TransformContext:
    """The point-independent data of the transforms of one vector f.

    ``coeffs`` holds the TM coefficients of f0 = f - f(0), hat(f0), g and h
    as rows, with f0 * hat(f0) = g + theta h verified by ``_split``.
    """

    f_at_zero: complex
    coeffs: np.ndarray  # (4, N)
    zeros: np.ndarray   # (N,) zeros of theta
    theta_c: complex    # front constant of theta

    def values(self, z):
        """f0, hat(f0), g, h and theta at z, from one TM pass."""
        basis, running = _tm_pass(self.zeros, z)
        f0, f0_hat, g, h = np.tensordot(self.coeffs, basis, axes=(1, 0))
        return f0, f0_hat, g, h, self.theta_c * running[-1]


# Bound on the boundary residual |f0 hat(f0) - g - theta h| of the split.
_SPLIT_RESIDUAL_TOL = 1e-9


def _split(ms: ModelSpace, vec: ModelVector) -> _TransformContext:
    """The Lemma 7 split of vec as its transform context, verified."""
    f_at_zero = ms.eval_vector(vec, 0.0)
    f0 = ms.vector(ms.coefficients(vec) - f_at_zero * np.conj(ms.basis_at_zero))
    f0_hat = hat_conjugate(ms, f0)
    p_vals = ms.boundary_values(f0) * ms.boundary_values(f0_hat)
    coeffs = np.array([f0.coeffs, f0_hat.coeffs, ms.project(p_vals),
                       ms.project(p_vals * np.conj(ms.theta_values))])
    ctx = _TransformContext(f_at_zero, coeffs,
                            np.asarray(ms.theta.zeros, dtype=complex),
                            ms.theta.c)
    f0_v, f0_hat_v, g_v, h_v, theta_v = ctx.values(_offgrid_samples())
    worst = float(np.max(np.abs(f0_v * f0_hat_v - g_v - theta_v * h_v)))
    if worst > _SPLIT_RESIDUAL_TOL:
        raise ResidueError(
            f"product decomposition residual {worst:.3e} exceeds "
            f"{_SPLIT_RESIDUAL_TOL}; "
            "basis conditioning insufficient")
    return ctx


def _transform_context(ms: ModelSpace, vec: ModelVector) -> _TransformContext:
    """The transform context of vec, split once per model space; a failed
    split raises and caches nothing."""
    ctx = ms._contexts.get(vec)
    if ctx is None:
        ctx = ms._contexts[vec] = _split(ms, vec)
    return ctx


def lemma7_decompose(ms: ModelSpace, vec: ModelVector
                     ) -> tuple[ModelVector, ModelVector]:
    """Split f0 * hat(f0) = g + theta * h with g, h in the model space.

    f0 = f - f(0).  The product lies in the model space of theta^2, which is
    the orthogonal sum of the space and theta times it, so g and h are its
    orthogonal projections, computed exactly by the Clark quadrature of
    theta^2; the boundary identity is re-verified on 64 boundary samples
    away from the nodes.  g and h are read from the transform context.
    """
    _, _, g, h = _transform_context(ms, vec).coeffs
    return ms.vector(g), ms.vector(h)


def _require_in_disk(z, closed: bool = False) -> np.ndarray:
    """z as a complex array, inside the open unit disk (or, when ``closed``,
    the closed disk up to rounding), else DomainError."""
    zarr = np.asarray(z, dtype=complex)
    modulus = np.abs(zarr)
    if np.any(modulus > 1.0 + 1e-12 if closed else modulus >= 1.0):
        raise DomainError(f"|z| = {np.max(modulus)} not inside the "
                          f"{'closed ' if closed else ''}unit disk")
    return zarr


def knu_alpha(ms: ModelSpace, vec: ModelVector, alpha: complex, z):
    """Closed-form Cauchy transform of |f|^2 d(mu_alpha) at z, |z| < 1
    (a scalar or an array of points).

    Assembles (g + alpha h + f(0) hat(f0) + alpha conj(f(0)) f0
    + alpha |f(0)|^2) / (alpha - theta); for f(0) = 0 this reduces to
    (g + alpha h)/(alpha - theta).
    """
    zarr = _require_in_disk(z)
    alpha = _require_unimodular(alpha)
    ctx = _transform_context(ms, vec)
    f0, f0_hat, g, h, theta = ctx.values(zarr)
    a = ctx.f_at_zero
    numerator = (g + alpha * h + a * f0_hat + alpha * np.conj(a) * f0
                 + alpha * abs(a) ** 2)
    return _shaped_like(z, numerator / (alpha - theta))
