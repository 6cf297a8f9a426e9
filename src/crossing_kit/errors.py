"""Exception types raised across the package.

Every failure mode that a caller can act on gets its own class; the CLI maps
them onto exit codes (config problems -> 2, numerical failures -> 3).
"""


class CrossingKitError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CrossingKitError):
    """Run configuration violates the documented schema.

    Carries the JSON key path of the offending entry, e.g. ``problem.r1.width``.
    """

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


class ValidationError(CrossingKitError):
    """Problem data violates a documented precondition."""


class NumericalError(CrossingKitError):
    """Base class for runtime numerical failures."""


class GridTooCoarse(NumericalError):
    """A sampled function does not resolve its own oscillation or envelope."""


class NoFiniteContact(NumericalError):
    """All iterated brackets vanish up to the probed order."""


class ZeroGradient(NumericalError):
    """A symbol has vanishing gradient at the crossing point."""


class TransversalUnsupported(NumericalError):
    """Normal-form constants requested for a transversal (order 1) crossing."""


class CaseMismatch(NumericalError):
    """Problem data does not match the requested crossing regime."""


class StepFailure(NumericalError):
    """An integrator failed to reach the end of the interval.

    Raised by the DOP853 oracles, and by the march when Picard iteration on
    a chunk does not converge.
    """


class IllConditioned(NumericalError):
    """A local linear solve (branch decomposition) is too close to singular."""


class DegenerateFit(NumericalError):
    """Power-law fit requested on degenerate data (too few or zero rows)."""
