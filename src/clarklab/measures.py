"""Finite positive atomic measures on the real line and the unit circle.

Every spectral object in this package is a finite positive atomic measure:
at desk scale all operators are finite matrices, so all spectral data is a
finite list of (position, mass) atoms.  This module provides the two
containers, Borel test sets built from closed intervals/arcs, the Cauchy
transforms, and the Simon-Wolff second-moment integral.

Conventions fixed here and relied on everywhere else:

* ``from_atoms`` sorts its atoms and merges those closer than
  ``MERGE_REL_TOL`` (relative), masses summed -- root finders return
  clustered roots for near-degenerate inputs and the merge makes them
  well-defined measures; the constructor merges nothing and keeps strictly
  increasing locations however close, so a model's spectral measure has
  one atom per site;
* Borel pieces are closed; an atom sitting exactly on an endpoint counts as
  inside;
* the Simon-Wolff integrals return ``math.inf`` (an explicit, machine
  decidable tag) when the probe coincides with an atom position, never a
  floating overflow.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ConstructionError, DomainError, PoleError
from .fields import _decimal, _field, _kind, _list, _pair

MERGE_REL_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def _wrap_angle(angle: float) -> float:
    """angle reduced to [0, 2*pi).  A tiny negative angle, such as -1e-17,
    has the remainder 2*pi in binary64; it is 0.0 on the circle."""
    angle = float(angle) % TWO_PI
    return 0.0 if angle == TWO_PI else angle


def _merge_sorted_atoms(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge positions closer than MERGE_REL_TOL (relative); masses add.

    The merged atom keeps the position of the heaviest contributor so the
    result does not drift when many near-duplicates pile up.
    """
    merged: list[list[float]] = []
    for pos, mass in pairs:
        if merged:
            prev_pos = merged[-1][0]
            scale = max(1.0, abs(prev_pos), abs(pos))
            if abs(pos - prev_pos) <= MERGE_REL_TOL * scale:
                if mass > merged[-1][2]:
                    merged[-1][0] = pos
                    merged[-1][2] = mass
                merged[-1][1] += mass
                continue
        merged.append([pos, mass, mass])
    return [(p, m) for p, m, _ in merged]


def _validated_atoms(atoms: Iterable[tuple[float, float]], what: str
                     ) -> list[tuple[float, float]]:
    pairs = []
    for pos, mass in atoms:
        pos = float(pos)
        mass = float(mass)
        if not math.isfinite(pos) or not math.isfinite(mass):
            raise ConstructionError(f"{what}: non-finite atom ({pos}, {mass})")
        if mass <= 0.0:
            raise ConstructionError(f"{what}: mass must be positive, got {mass}")
        pairs.append((pos, mass))
    pairs.sort(key=lambda pm: pm[0])
    return _merge_sorted_atoms(pairs)


def _float_fields(measure, locations: str) -> tuple[float, ...]:
    """Coerce the location and mass fields of a frozen measure to tuples of
    floats in place, check the masses positive and finite, and return the
    locations."""
    locs = tuple(map(float, getattr(measure, locations)))
    masses = tuple(map(float, measure.masses))
    object.__setattr__(measure, locations, locs)
    object.__setattr__(measure, "masses", masses)
    if len(locs) != len(masses):
        raise ConstructionError(f"{locations} and masses differ in length")
    if not all(0.0 < m < math.inf for m in masses):
        raise ConstructionError("all masses must be positive and finite")
    return locs


@dataclass(frozen=True)
class LineAtomicMeasure:
    """Finite positive atomic measure on the real line.

    ``positions`` are finite and strictly increasing, all ``masses``
    positive and finite.  The measure is also its own Cauchy transform
    sum_j m_j / (t_j - z), held in pole form: the atoms are the poles and
    the masses the residues.
    """

    positions: tuple[float, ...]
    masses: tuple[float, ...]

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "LineAtomicMeasure":
        pairs = _validated_atoms(atoms, "LineAtomicMeasure")
        return cls(tuple(p for p, _ in pairs), tuple(m for _, m in pairs))

    def __post_init__(self):
        positions = _float_fields(self, "positions")
        if not all(math.isfinite(t) for t in positions):
            raise ConstructionError("positions must be finite")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ConstructionError("positions must be strictly increasing; "
                                    "use from_atoms() to sort and merge")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CircleAtomicMeasure:
    """Finite positive atomic measure on the unit circle.

    Atom locations are angles in [0, 2*pi), strictly increasing; all
    ``masses`` positive and finite.
    """

    angles: tuple[float, ...]
    masses: tuple[float, ...]

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "CircleAtomicMeasure":
        wrapped = [(_wrap_angle(a), m) for a, m in atoms]
        pairs = _validated_atoms(wrapped, "CircleAtomicMeasure")
        # The merge above is linear in angle; also merge across the 0/2*pi seam
        # (keeping the near-zero angle preserves the sorted invariant).
        if len(pairs) > 1:
            gap = (pairs[0][0] + TWO_PI) - pairs[-1][0]
            if gap <= MERGE_REL_TOL * TWO_PI:
                pairs[0] = (pairs[0][0], pairs[0][1] + pairs[-1][1])
                pairs.pop()
        return cls(tuple(p for p, _ in pairs), tuple(m for _, m in pairs))

    def __post_init__(self):
        angles = _float_fields(self, "angles")
        if not all(0.0 <= a < TWO_PI for a in angles):
            raise ConstructionError("angles must lie in [0, 2*pi); "
                                    "use from_atoms() to wrap")
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ConstructionError("angles must be strictly increasing; "
                                    "use from_atoms() to sort and merge")

    def points(self) -> np.ndarray:
        """Atom locations as unimodular complex numbers."""
        return np.exp(1j * np.asarray(self.angles))

    def __len__(self) -> int:
        return len(self.angles)


AtomicMeasure = Union[LineAtomicMeasure, CircleAtomicMeasure]


def _normalize_arc(start: float, end: float) -> tuple[float, float]:
    """Reduce an arc to (start in [0, 2*pi), length in (0, 2*pi])."""
    length = end - start
    if length <= 0.0:
        raise ConstructionError(f"arc ({start}, {end}) has non-positive length")
    if length > TWO_PI:
        raise ConstructionError(f"arc ({start}, {end}) longer than the circle")
    return _wrap_angle(start), length


@dataclass(frozen=True)
class BorelSetSpec:
    """Finite union of disjoint closed intervals (line) or arcs (circle).

    Line pieces are (a, b) with a <= b.  Circle pieces are (start, end)
    angles traversed counterclockwise; end may exceed 2*pi to wrap.
    """

    space: str
    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.space not in ("line", "circle"):
            raise ConstructionError(f"space must be 'line' or 'circle', got {self.space!r}")
        ends = [x for piece in self.pieces for x in piece]
        if not all(map(math.isfinite, ends)):
            raise ConstructionError(f"piece endpoints must be finite: {self.pieces}")
        if self.space == "line":
            for a, b in self.pieces:
                if b < a:
                    raise ConstructionError(f"interval ({a}, {b}) reversed")
            spans = sorted(self.pieces)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                if a2 < b1:
                    raise ConstructionError("line pieces overlap")
        else:
            arcs = []
            for s, e in self.pieces:
                start, length = _normalize_arc(s, e)
                arcs.append((start, length))
            arcs.sort()
            for i, (s1, l1) in enumerate(arcs):
                s2, _ = arcs[(i + 1) % len(arcs)]
                if i + 1 == len(arcs):
                    s2 += TWO_PI
                if len(arcs) > 1 and s1 + l1 > s2:
                    raise ConstructionError("circle arcs overlap")

    def total_length(self) -> float:
        if self.space == "line":
            return math.fsum(b - a for a, b in self.pieces)
        return math.fsum(_normalize_arc(s, e)[1] for s, e in self.pieces)

    def mask(self, locations) -> np.ndarray:
        """Closed-piece membership of each location, a boolean array of the
        same shape.  For the circle the locations are angles (any real)."""
        x = np.asarray(locations, dtype=float)
        inside = np.zeros(x.shape, dtype=bool)
        if self.space == "line":
            for a, b in self.pieces:
                inside |= (x >= a) & (x <= b)
            return inside
        t = x % TWO_PI
        for s, e in self.pieces:
            start, length = _normalize_arc(s, e)
            inside |= (t - start) % TWO_PI <= length
        return inside


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def total_mass(mu: AtomicMeasure) -> float:
    """Sum of the atom masses."""
    return math.fsum(mu.masses)


def measure_of(mu: AtomicMeasure, borel: BorelSetSpec) -> float:
    """Mass carried by atoms lying in the (closed) Borel set."""
    if isinstance(mu, LineAtomicMeasure):
        if borel.space != "line":
            raise DomainError("line measure needs a line Borel set")
        locs = mu.positions
    else:
        if borel.space != "circle":
            raise DomainError("circle measure needs a circle Borel set")
        locs = mu.angles
    return math.fsum(np.asarray(mu.masses)[borel.mask(locs)])


def cauchy_transform_line(mu: LineAtomicMeasure, z: complex) -> complex:
    """Cauchy transform sum_j m_j / (t_j - z).

    Maps the upper half-plane into itself (Herglotz) for any nonzero
    measure.  Raises PoleError if z coincides exactly with an atom.
    """
    z = complex(z)
    if z.imag == 0.0 and any(z.real == t for t in mu.positions):
        raise PoleError(f"evaluation at atom position {z.real}")
    t = np.asarray(mu.positions)
    m = np.asarray(mu.masses)
    return complex(np.sum(m / (t - z)))


def cauchy_transform_disk(nu: CircleAtomicMeasure, z: complex) -> complex:
    """Disk Cauchy transform sum_j m_j / (1 - conj(xi_j) z), |z| < 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"|z| = {abs(z)} not inside the unit disk")
    xi = nu.points()
    m = np.asarray(nu.masses)
    return complex(np.sum(m / (1.0 - np.conj(xi) * z)))


def simon_wolff_integral(mu: LineAtomicMeasure, y: float) -> float:
    """Second-moment integral sum_j m_j / (t_j - y)^2.

    Returns math.inf exactly when y is an atom position; the finite/infinite
    dichotomy is what the pure-point criterion consumes, so the infinite
    branch is an explicit tag rather than an overflow.
    """
    y = float(y)
    if any(y == t for t in mu.positions):
        return math.inf
    t = np.asarray(mu.positions)
    m = np.asarray(mu.masses)
    return float(np.sum(m / (t - y) ** 2))


def simon_wolff_integral_circle(nu: CircleAtomicMeasure, xi: complex) -> float:
    """Circle variant sum_j m_j / |xi - xi_j|^2 for |xi| = 1 (within 1e-8)."""
    xi = complex(xi)
    r = abs(xi)
    if not abs(r - 1.0) <= 1e-8:
        raise DomainError(f"|xi| = {r} is not unimodular within 1e-8")
    xi = xi / r
    angle = cmath.phase(xi) % TWO_PI
    if any(angle == a for a in nu.angles):
        return math.inf
    pts = nu.points()
    if any(xi == p for p in pts):
        return math.inf
    m = np.asarray(nu.masses)
    return float(np.sum(m / np.abs(xi - pts) ** 2))


# ---------------------------------------------------------------------------
# Serialization: {"space": ..., "atoms": [[pos, mass], ...]} with binary64
# values encoded as shortest round-trip decimal strings (bit-exact).
# ---------------------------------------------------------------------------

def _enc(x: float) -> str:
    return repr(float(x))


def measure_to_json_dict(mu: AtomicMeasure) -> dict:
    if isinstance(mu, LineAtomicMeasure):
        return {"space": "line",
                "atoms": [[_enc(p), _enc(m)] for p, m in zip(mu.positions, mu.masses)]}
    return {"space": "circle",
            "atoms": [[_enc(a), _enc(m)] for a, m in zip(mu.angles, mu.masses)]}


def measure_from_json_dict(obj, where: str = "measure") -> AtomicMeasure:
    """The measure ``obj`` describes; a bad field raises ScenarioError."""
    space = _kind(_field(obj, "space", where), f"{where}.space")
    atoms = _list(_field(obj, "atoms", where), f"{where}.atoms", empty=True)
    measure = LineAtomicMeasure if space == "line" else CircleAtomicMeasure
    return measure.from_atoms([_pair(atom, f"{where}.atoms[{k}]", _decimal)
                               for k, atom in enumerate(atoms)])


def measure_to_json(mu: AtomicMeasure) -> str:
    return json.dumps(measure_to_json_dict(mu), sort_keys=True)


def measure_from_json(text: str) -> AtomicMeasure:
    return measure_from_json_dict(json.loads(text))
