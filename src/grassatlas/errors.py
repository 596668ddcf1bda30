"""Exception hierarchy for the grassatlas toolkit."""

from functools import partial


class GrassAtlasError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GrassAtlasError):
    """Operands live in incompatible coordinate spaces."""


class PairingMismatch(GrassAtlasError, ArithmeticError):
    """The two trace orders of a duality pairing disagree beyond roundoff."""


class _ConditioningError(GrassAtlasError):
    """An error raised on a conditioning measurement, which it carries as fields.

    ``conditioning`` is the measured value and ``tol`` the threshold it failed;
    both are ``None`` where the raising site measured no conditioning.
    """

    def __init__(self, message: str, conditioning: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.conditioning = conditioning
        self.tol = tol


class SplitFailure(_ConditioningError):
    """A pair of subspaces is not (numerically) complementary."""


class ChartDomainViolation(_ConditioningError):
    """A subspace lies outside a chart domain, or too close to its boundary."""


class ChartMismatch(GrassAtlasError):
    """Fiber objects attached to different chart points were combined."""


class FactorMismatch(GrassAtlasError):
    """Supplied multiplier factors do not reproduce the fiber transition map.

    ``residual`` is the relative residual the factors left and ``bound`` the
    bound it failed; a NaN residual fails every bound.
    """

    def __init__(self, message: str, *, residual: float, bound: float):
        super().__init__(message)
        self.residual = residual
        self.bound = bound

    def __reduce__(self):
        # copy and pickle rebuild an exception from its args, which omit the
        # keyword-only fields
        return partial(type(self), residual=self.residual, bound=self.bound), self.args


class LadderMismatch(GrassAtlasError):
    """Truncation ladder entries are not coherently embedded."""


class BadProfile(GrassAtlasError):
    """Invalid singular-value decay profile."""


class PredualUnavailable(GrassAtlasError):
    """Requested a precotangent fiber for a class that admits no predual."""


class ConfigError(GrassAtlasError):
    """Invalid verification suite configuration."""
