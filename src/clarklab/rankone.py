"""Rank-one perturbation families of cyclic self-adjoint and unitary operators.

A diagonalized cyclic operator (sites + cyclic-vector weights) is perturbed
along its cyclic vector; the perturbed spectral measures are computed two
independent ways:

* the transform route -- secular-equation roots and residues of the
  resolvent identity K_lam = K_0 / (1 + lam K_0) on the line; on the
  circle, the Clark measure of the model's inner function at the
  perturbation parameter (Clark: the two families are the same);
* the dense-matrix oracle -- full eigendecomposition of the perturbed
  matrix, masses as squared projections onto the cyclic vector.

The module also carries the inner function of a circle model, Clark
measures of finite Blaschke products, and the two measure-disintegration
identities: averaging the perturbed family over the coupling recovers
Lebesgue measure on the line, and averaging the Clark measures over the
spectral parameter recovers normalized arc length.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionError, DomainError
from .fields import _field, _kind, _reals
from .herglotz import (BlaschkeProduct, _blaschke_with_value, _clark_atoms,
                       _perturbed_atoms_line, blaschke_eval)
from .measures import (BorelSetSpec, CircleAtomicMeasure, LineAtomicMeasure,
                       TWO_PI, _require_unimodular, _wrap_angle,
                       cauchy_transform_disk, cauchy_transform_line,
                       simon_wolff_integral)
from .quadrature import integrate_circle, integrate_line

WEIGHT_SUM_TOL = 1e-12
ORACLE_MAX_DIMENSION = 4096     # largest model the dense line oracle takes


@dataclass(frozen=True)
class CyclicOperatorModel:
    """Diagonalized cyclic operator with cyclic-vector weights.

    ``sites`` are eigenvalues (line) or eigenvalue angles (circle), strictly
    increasing; ``weights`` are |<phi, e_j>|^2 > 0 and sum to 1, so the
    cyclic vector is a unit vector with nonzero component in every
    eigenspace.
    """

    kind: str
    sites: tuple[float, ...]
    weights: tuple[float, ...]
    # the spectral measure, built by __post_init__ (see spectral_measure)
    _measure: LineAtomicMeasure | CircleAtomicMeasure = field(
        init=False, repr=False, compare=False)
    # inner_from_unitary(self), built on its first call and kept
    _theta: BlaschkeProduct | None = field(default=None, init=False,
                                           repr=False, compare=False)

    @classmethod
    def from_data(cls, kind: str, sites: Iterable[float],
                  weights: Iterable[float]) -> "CyclicOperatorModel":
        sites = [float(s) for s in sites]
        weights = [float(w) for w in weights]
        if len(sites) != len(weights):
            raise ConstructionError(f"{len(sites)} sites but {len(weights)} weights")
        if kind == "circle":
            sites = [_wrap_angle(s) for s in sites]
        pairs = sorted(zip(sites, weights))
        return cls(kind, tuple(s for s, _ in pairs), tuple(w for _, w in pairs))

    def __post_init__(self):
        if self.kind not in ("line", "circle"):
            raise ConstructionError(f"kind must be 'line' or 'circle', got {self.kind!r}")
        if len(self.sites) != len(self.weights) or not self.sites:
            raise ConstructionError("sites and weights must be non-empty and aligned")
        # the measure's own checks validate the sites and the weights
        measure = LineAtomicMeasure if self.kind == "line" else CircleAtomicMeasure
        object.__setattr__(self, "_measure", measure(self.sites, self.weights))
        defect = abs(math.fsum(self.weights) - 1.0)
        if defect > WEIGHT_SUM_TOL:
            raise ConstructionError(
                f"weights sum to 1 {defect:.3e} away; cyclic vector not unit")

    @property
    def dimension(self) -> int:
        return len(self.sites)

    def dense(self) -> np.ndarray:
        """Dense diagonal realization."""
        if self.kind == "line":
            return np.diag(np.asarray(self.sites, dtype=float))
        return np.diag(np.exp(1j * np.asarray(self.sites)))

    def cyclic_vector(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.weights, dtype=float))


def model_to_json_dict(model: CyclicOperatorModel) -> dict:
    return {"kind": model.kind, "sites": list(model.sites),
            "weights": list(model.weights)}


def model_from_json_dict(obj, where: str = "model") -> CyclicOperatorModel:
    """The model ``obj`` describes; a bad field raises ScenarioError."""
    return CyclicOperatorModel.from_data(
        _kind(_field(obj, "kind", where), f"{where}.kind"),
        _reals(_field(obj, "sites", where), f"{where}.sites"),
        _reals(_field(obj, "weights", where), f"{where}.weights"))


def spectral_measure(model: CyclicOperatorModel):
    """Spectral measure of the cyclic vector, built once by the model."""
    return model._measure


# ---------------------------------------------------------------------------
# Self-adjoint family
# ---------------------------------------------------------------------------

def _perturbed_selfadjoint(model: CyclicOperatorModel, lams
                           ) -> list[LineAtomicMeasure]:
    """``perturb_selfadjoint`` at each coupling of a list, in order: one
    batched secular solve for all the nonzero couplings, and the unperturbed
    measure at each lam = 0."""
    if model.kind != "line":
        raise DomainError("self-adjoint perturbation needs a line model")
    mu0 = spectral_measure(model)
    lams = np.array(lams, dtype=float, ndmin=1)
    moved = np.flatnonzero(lams != 0.0)
    out = [mu0] * lams.size
    if moved.size:
        roots, masses = _perturbed_atoms_line(mu0, lams[moved])
        for k, row, mrow in zip(moved, roots, masses):
            out[k] = LineAtomicMeasure.from_atoms(zip(row, mrow))
    return out


def perturb_selfadjoint(model: CyclicOperatorModel, lam: float) -> LineAtomicMeasure:
    """Spectral measure of the rank-one update at coupling lam.

    Atoms are the secular roots of K0 = -1/lam, masses the residues
    1/(lam^2 K0'), one row of the coupling average's batched kernel; lam = 0
    returns the unperturbed measure, and an infinite or NaN coupling raises
    DomainError.
    """
    return _perturbed_selfadjoint(model, [lam])[0]


def _selfadjoint_oracle(model: CyclicOperatorModel, lams
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``matrix_oracle_selfadjoint`` at each coupling of a list: eigenvalues
    and masses, (L, N) arrays, from one stacked ``eigh``."""
    if model.kind != "line":
        raise DomainError("self-adjoint oracle needs a line model")
    if model.dimension > ORACLE_MAX_DIMENSION:
        raise DomainError(
            f"dimension {model.dimension} exceeds {ORACLE_MAX_DIMENSION}")
    phi = model.cyclic_vector()
    lams = np.array(lams, dtype=float, ndmin=1)
    a = (np.diag(np.asarray(model.sites, dtype=float))
         + lams[:, None, None] * np.outer(phi, phi))
    evals, evecs = np.linalg.eigh(a)
    return evals, (np.swapaxes(evecs, -1, -2) @ phi) ** 2


def matrix_oracle_selfadjoint(model: CyclicOperatorModel, lam: float
                              ) -> LineAtomicMeasure:
    """Independent oracle: dense eigendecomposition of diag + lam phi phi*;
    a model above ORACLE_MAX_DIMENSION raises DomainError."""
    (evals,), (masses,) = _selfadjoint_oracle(model, [lam])
    return LineAtomicMeasure.from_atoms(zip(evals, masses))


def simon_wolff_classify(mu: LineAtomicMeasure, probes: Sequence[float]) -> list[dict]:
    """Evaluate the second-moment integral at each probe; finite iff off-atom."""
    out = []
    for y in probes:
        val = simon_wolff_integral(mu, float(y))
        out.append({"probe": float(y), "value": val, "finite": math.isfinite(val)})
    return out


# ---------------------------------------------------------------------------
# Unitary family and the inner-function dictionary
# ---------------------------------------------------------------------------

def _unitary_eigenbasis(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenbasis (the columns of Q) of a
    unitary matrix U, or of each matrix in a stack of shape (..., N, N).

    With gamma in the middle of the widest gap of the spectrum, V = e^{-i gamma} U
    keeps its eigenvalues at least half that gap away from 1, so the Cayley
    transform i (I - V)^{-1} (I + V) is a well-conditioned Hermitian matrix
    with the same eigenvectors (eigenvalue -cot(phi/2) for e^{i phi}).
    Hermitian ``eigh`` of it returns an orthonormal basis even for
    clustered eigenvalues, and the eigenvalues of U are read back as the
    Rayleigh quotients q^H U q.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(matrix)), axis=-1)
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + TWO_PI)
    widest = np.argmax(gaps, axis=-1)[..., None]
    gamma = (np.take_along_axis(angles, widest, axis=-1)
             + 0.5 * np.take_along_axis(gaps, widest, axis=-1))
    v = np.exp(-1j * gamma)[..., None] * matrix
    eye = np.eye(matrix.shape[-1])
    cayley = 1j * np.linalg.solve(eye - v, eye + v)
    _, q = np.linalg.eigh(0.5 * (cayley + np.swapaxes(cayley.conj(), -1, -2)))
    return np.sum(q.conj() * (matrix @ q), axis=-2), q


def _require_unitary(stack: np.ndarray) -> np.ndarray:
    """The (L, N, N) stack as a complex array; a matrix whose U*U is more
    than 1e-9 from I (Frobenius, which bounds the spectral norm from above)
    raises DomainError naming its row."""
    stack = np.asarray(stack, dtype=complex)
    defect = np.linalg.norm(np.swapaxes(stack.conj(), -1, -2) @ stack
                            - np.eye(stack.shape[-1]), axis=(-2, -1))
    if not np.all(defect <= 1e-9):
        row = int(np.argmax(~(defect <= 1e-9)))
        raise DomainError(f"matrix {row} of the stack is not unitary: "
                          f"||U*U - I|| = {defect[row]:.3e}")
    return stack


def _unitary_spectra(matrices: np.ndarray, vector: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue angles in [0, 2 pi) and the masses |<vector, q_j>|^2 of
    each unitary of an (L, N, N) stack, (L, N) arrays, in the orthonormal
    eigenbasis of ``_unitary_eigenbasis``.  The stack is not checked here:
    its builder checks it (``_require_unitary``, or every stage in
    ``rankn._staged_unitaries``)."""
    evals, q = _unitary_eigenbasis(np.asarray(matrices, dtype=complex))
    masses = np.abs(np.swapaxes(q.conj(), -1, -2)
                    @ np.asarray(vector, dtype=complex)) ** 2
    return np.angle(evals) % TWO_PI, masses


def _circle_measures(angles: np.ndarray, masses: np.ndarray
                     ) -> list[CircleAtomicMeasure]:
    """One measure per row of (L, N) atom arrays, each built (merged and
    validated) by from_atoms."""
    return [CircleAtomicMeasure.from_atoms(zip(row, mrow))
            for row, mrow in zip(angles, masses)]


def unitary_spectral_measure(matrix: np.ndarray, vector: np.ndarray
                             ) -> CircleAtomicMeasure:
    """Spectral measure of ``vector`` for a unitary matrix.

    Uses the orthonormal eigenbasis of ``_unitary_eigenbasis``, which keeps
    masses accurate even for clustered eigenvalues.
    """
    return _circle_measures(*_unitary_spectra(
        _require_unitary(np.asarray(matrix)[None]), vector))[0]


def rank_one_unitary_update(matrix: np.ndarray, vector: np.ndarray,
                            alpha) -> np.ndarray:
    """U + (alpha - 1) (., U^{-1} v) v for unitary U (U^{-1} = U*).

    A stack of matrices (..., N, N) takes one alpha per matrix.
    """
    matrix = np.asarray(matrix, dtype=complex)
    v = np.asarray(vector, dtype=complex)
    uinv_v = np.swapaxes(matrix.conj(), -1, -2) @ v
    scale = np.asarray(alpha - 1.0)[..., None, None]
    return matrix + scale * (v[:, None] * np.conj(uinv_v)[..., None, :])


def _unitary_oracle(model: CyclicOperatorModel, alphas
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``matrix_oracle_unitary`` at each alpha of a list: eigenvalue angles
    and masses, (L, N) arrays, from one stack of updates."""
    if model.kind != "circle":
        raise DomainError("unitary oracle needs a circle model")
    v = model.cyclic_vector().astype(complex)
    alphas = np.array(alphas, dtype=complex, ndmin=1)
    return _unitary_spectra(
        _require_unitary(rank_one_unitary_update(model.dense(), v, alphas)), v)


def matrix_oracle_unitary(model: CyclicOperatorModel, alpha: complex
                          ) -> CircleAtomicMeasure:
    """Dense oracle for the unitary rank-one family."""
    return _circle_measures(*_unitary_oracle(model, [alpha]))[0]


def inner_from_unitary(model: CyclicOperatorModel) -> BlaschkeProduct:
    """The inner function theta with K nu_1 = 1/(1 - theta), theta(0) = 0.

    nu_1 is the model's spectral measure; theta = 1 - 1/K nu_1 is a degree-N
    Blaschke product because Re K nu_1 > 1/2 on the disk for a probability
    measure.  Its zeros are the eigenvalues of the alpha = 0 contraction
    U - (., U^{-1} phi) phi (Clark / Aleksandrov: the spectrum of the
    alpha-perturbation is the level set {theta = alpha}).  The product is
    verified against the defining identity on sampled disk points, built
    once per model and kept on it; a build that raises keeps nothing.
    """
    if model.kind != "circle":
        raise DomainError("inner_from_unitary needs a circle model")
    if model._theta is not None:
        return model._theta
    nu1 = spectral_measure(model)
    roots = np.linalg.eigvals(rank_one_unitary_update(
        model.dense(), model.cyclic_vector(), 0.0))
    # BlaschkeProduct rejects a zero that escaped the open disk.
    zeros = np.where(np.abs(roots) <= 1e-10, 0.0, roots)
    theta = _blaschke_with_value(
        zeros, lambda w0: 1.0 - 1.0 / cauchy_transform_disk(nu1, w0))

    sample = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16.0)
    kvals = cauchy_transform_disk(nu1, sample)
    tvals = blaschke_eval(theta, sample)
    defect = np.max(np.abs(kvals * (1.0 - tvals) - 1.0))
    if defect > 1e-10:
        raise ConstructionError(
            f"K*(1-theta) = 1 fails by {defect:.3e} on sampled disk points")
    if abs(blaschke_eval(theta, 0.0)) > 1e-10:
        raise ConstructionError("theta(0) != 0 for a unit-mass model")
    object.__setattr__(model, "_theta", theta)
    return theta


def perturb_unitary(model: CyclicOperatorModel, alpha: complex
                    ) -> CircleAtomicMeasure:
    """Spectral measure of the unitary rank-one update at parameter alpha.

    By Clark's theorem this is the Clark measure of the model's inner
    function theta at alpha: atoms at the level set {theta = alpha}, masses
    1/|theta'|.  alpha = 1 returns the base measure.
    """
    if model.kind != "circle":
        raise DomainError("unitary perturbation needs a circle model")
    alpha = _require_unimodular(alpha)
    if abs(alpha - 1.0) < 1e-14:
        return spectral_measure(model)
    return clark_measure(inner_from_unitary(model), alpha)


# ---------------------------------------------------------------------------
# Clark measures
# ---------------------------------------------------------------------------

def clark_measure(theta: BlaschkeProduct, alpha: complex) -> CircleAtomicMeasure:
    """Clark measure of theta at unimodular alpha.

    Atoms at the boundary level set {theta = alpha}; the mass at an atom xi
    is 1/|theta'(xi)|, the residue of the normalized transform at xi (see
    ``herglotz._clark_atoms``).  For a finite Blaschke product |theta'| > 0
    everywhere on the circle so every level set is simple and every alpha
    is regular.
    """
    return _clark_measures(theta, alpha)[0]


def _clark_measures(theta: BlaschkeProduct, alphas) -> list[CircleAtomicMeasure]:
    """``clark_measure`` at each alpha of a list, from one level-set solve."""
    pts, masses = _clark_atoms(theta, alphas)
    return _circle_measures(np.angle(pts) % TWO_PI, masses)


def circle_measure_deviation(a: CircleAtomicMeasure, b: CircleAtomicMeasure
                             ) -> tuple[float, float]:
    """Max angular and mass deviation under the best cyclic atom alignment.

    Both atom lists are sorted by angle, but an atom sitting numerically on
    either side of the 0/2*pi seam shifts the whole ordering by one; the
    cyclic scan makes the comparison seam-proof.
    """
    n = len(a)
    if n != len(b) or n == 0:
        return math.inf, math.inf
    # Row s of the index array is np.roll(range(n), -s); argmin takes the
    # first best shift.
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    da = np.abs(np.angle(np.exp(1j * (np.asarray(b.angles)[shifts]
                                      - np.asarray(a.angles))))).max(axis=1)
    best = int(np.argmin(da))
    dm = np.abs(np.asarray(b.masses)[shifts[best]] - np.asarray(a.masses)).max()
    return float(da[best]), float(dm)


# ---------------------------------------------------------------------------
# Disintegration identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisintegrationResult:
    estimate: float
    expected: float
    quadrature_error: float

    @property
    def defect(self) -> float:
        return abs(self.estimate - self.expected)


def disintegration_check_line(model: CyclicOperatorModel, borel: BorelSetSpec,
                              tol: float = 1e-3) -> DisintegrationResult:
    """Verify that integrating lam -> mu_lam(B) over every coupling recovers |B|.

    The line of couplings is covered by two charts on [-1, 1]: lam itself
    for |lam| <= 1, and u = 1/lam for |lam| >= 1, where the integrand is
    mu_{1/u}(B) / u^2.  Both integrands are bounded: a root that stays
    near the atoms carries mass 1/(lam^2 K'), and the root that escapes
    to infinity leaves the bounded set B.  A single chart such as
    lam = tan s would place the crossings of a set far out on the line
    within 1/|lam| of +/-pi/2, where binary64 spaces s evenly and cannot
    resolve them; in u they sit near 0 with full relative precision, so a
    piece near x comes out within about |x| eps, the spacing of its own
    endpoints.  Each chart is integrated adaptively with breakpoints at 0
    and at the couplings where a secular root crosses an endpoint e of B,
    lam = -1/K(e) or u = -K(e) (the integrand jumps there; a crossing at
    lam = +/-infinity is u = 0).  Each quadrature refinement round is one
    batched secular solve and one residue extraction for all of its
    couplings, with the checks of ``perturb_selfadjoint`` per coupling:
    finite roots, positive finite masses, and the total mass conserved.
    """
    if borel.space != "line":
        raise DomainError("line disintegration needs a line Borel set")
    if model.kind != "line":
        raise DomainError("line disintegration needs a line model")
    mu0 = spectral_measure(model)

    near, far = [0.0], [0.0]
    for a, b in borel.pieces:
        for endpoint in (a, b):
            if any(endpoint == t for t in mu0.positions):
                continue
            kval = cauchy_transform_line(mu0, endpoint).real
            if abs(kval) > 1.0:
                near.append(-1.0 / kval)
            else:
                far.append(-kval)

    def mass_inside(lams: np.ndarray) -> np.ndarray:
        roots, masses = _perturbed_atoms_line(mu0, lams)
        return _mass_inside(masses, borel.mask(roots))

    value, err = integrate_line(mass_inside, -1.0, 1.0, tol=0.25 * tol,
                                breakpoints=near)
    far_value, far_err = integrate_line(
        lambda u: mass_inside(1.0 / u) / (u * u), -1.0, 1.0,
        tol=0.25 * tol, breakpoints=far)
    value += far_value
    err += far_err
    return DisintegrationResult(estimate=value, expected=borel.total_length(),
                                quadrature_error=err)


def _mass_inside(masses: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per row, the sum of the masses of the atoms inside a Borel set,
    correctly rounded as in ``measure_of``."""
    return np.array([math.fsum(row[keep])
                     for row, keep in zip(masses, inside)])


def disintegration_check_circle(theta: BlaschkeProduct, borel: BorelSetSpec,
                                tol: float = 1e-6) -> DisintegrationResult:
    """Verify that averaging the Clark family over alpha recovers m(B).

    The integrand alpha -> mu_alpha(B) jumps exactly when a level-set point
    crosses an endpoint of B, i.e. at alpha = theta(endpoint); those are
    the breakpoints of the adaptive Gauss-Kronrod quadrature over the
    circle of alphas, and each refinement round is one batched level-set
    solve.
    """
    if borel.space != "circle":
        raise DomainError("circle disintegration needs a circle Borel set")
    breakpoints = []
    for s, e in borel.pieces:
        for b in (s, s + (e - s)):
            val = blaschke_eval(theta, cmath.exp(1j * b))
            breakpoints.append(cmath.phase(val) % TWO_PI)

    def integrand(s_arr: np.ndarray) -> np.ndarray:
        pts, masses = _clark_atoms(theta, np.exp(1j * np.asarray(s_arr)))
        return np.sum(masses * borel.mask(np.angle(pts)), axis=1)

    value, err = integrate_circle(integrand, tol=0.5 * tol * TWO_PI,
                                  breakpoints=breakpoints)
    return DisintegrationResult(estimate=value / TWO_PI,
                                expected=borel.total_length() / TWO_PI,
                                quadrature_error=err / TWO_PI)
