"""Independent reference computations for the benchmark's output checks.

Nothing here calls clarklab: every expected value is built from the raw
input data with dense numpy linear algebra or from a closed-form property,
so a check can only pass if the program agrees with mathematics, not with
an earlier copy of itself.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def line_perturbation(sites, weights, lam):
    """Eigenvalues and masses of diag(t) + lam * phi phi^T, phi = sqrt(w)."""
    phi = np.sqrt(np.asarray(weights, dtype=float))
    a = np.diag(np.asarray(sites, dtype=float)) + lam * np.outer(phi, phi)
    evals, evecs = np.linalg.eigh(a)
    return evals, (evecs.T @ phi) ** 2


def unitary_update(u, v, alpha):
    """U + (alpha - 1) v (U^* v)^*, the rank-one unitary family."""
    return u + (alpha - 1.0) * np.outer(v, np.conj(u.conj().T @ v))


def circle_model_unitary(angles, weights, alpha):
    """Dense U_alpha and cyclic vector of a diagonal circle model."""
    u = np.diag(np.exp(1j * np.asarray(angles, dtype=float)))
    v = np.sqrt(np.asarray(weights, dtype=float)).astype(complex)
    return unitary_update(u, v, alpha), v


def staged_two_parameter(angles, phi1, phi2, alpha, beta):
    """U_2 = (U_alpha along phi1) updated at beta along phi2."""
    u = np.diag(np.exp(1j * np.asarray(angles, dtype=float)))
    return unitary_update(unitary_update(u, phi1, alpha), phi2, beta)


def resolvent(u, v, zs):
    """<(I - z U^*)^{-1} v, v> for each z in zs."""
    eye = np.eye(u.shape[0])
    uh = u.conj().T
    return np.array([np.vdot(v, np.linalg.solve(eye - z * uh, v)) for z in zs])


def disk_cauchy(angles, masses, zs):
    """sum_j m_j / (1 - conj(xi_j) z) for each z in zs."""
    xi = np.exp(1j * np.asarray(angles, dtype=float))
    m = np.asarray(masses, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    return np.sum(m[None, :] / (1.0 - np.conj(xi)[None, :] * zs[:, None]), axis=1)


def blaschke(zeros, c, z):
    """theta(z) = c * prod (z - z_j) / (1 - conj(z_j) z)."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, complex(c))
    for zj in zeros:
        out = out * (z - zj) / (1.0 - np.conj(zj) * z)
    return out


def poisson(angles, masses, zs):
    """sum_j m_j (1 - |z|^2) / |xi_j - z|^2 for each z in zs."""
    xi = np.exp(1j * np.asarray(angles, dtype=float))
    m = np.asarray(masses, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    kern = (1.0 - np.abs(zs[:, None]) ** 2) / np.abs(xi[None, :] - zs[:, None]) ** 2
    return np.sum(m[None, :] * kern, axis=1)


def cyclic_angle_deviation(a, b):
    """Largest angular distance between two sorted angle lists under the
    best cyclic alignment (an atom near 0 may sort first or last)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        return math.inf
    best = math.inf
    for shift in range(a.size):
        d = np.abs(np.angle(np.exp(1j * (np.roll(b, -shift) - a))))
        best = min(best, float(d.max()))
    return best
