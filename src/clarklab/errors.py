"""Exception hierarchy.

Separate classes rather than bare ValueError so callers can distinguish
bad arguments from computations that reveal a broken assumption
(non-convergent root polish, mass defect, lost cyclicity, ...).
"""


class ClarkLabError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(ClarkLabError):
    """A value violates a type invariant at construction time."""


class DomainError(ClarkLabError):
    """Argument lies outside the domain required by an operation."""


class PoleError(ClarkLabError):
    """Evaluation was requested exactly at a pole."""


class RootFindingError(ClarkLabError):
    """Bracketing or polish of a root did not reach tolerance."""


class ResidueError(ClarkLabError):
    """Residue/mass extraction hit a degenerate configuration."""


class QuadratureError(ClarkLabError):
    """Adaptive integration did not converge within its budget."""


class CyclicityError(ClarkLabError):
    """A vector required to be cyclic is numerically non-cyclic."""


class ScenarioError(ClarkLabError):
    """An input document (a scenario, model, inner-function, family or
    measure object) failed to parse or validate; message names the field."""
