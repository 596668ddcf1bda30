"""Exception hierarchy for the grassatlas toolkit."""


class GrassAtlasError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GrassAtlasError):
    """Operands live in incompatible coordinate spaces."""


class PairingMismatch(GrassAtlasError, ArithmeticError):
    """The two trace orders of a duality pairing disagree beyond roundoff."""


class SplitFailure(GrassAtlasError):
    """A pair of subspaces is not (numerically) complementary."""


class ChartDomainViolation(GrassAtlasError):
    """A subspace lies outside a chart domain, or too close to its boundary."""


class ChartMismatch(GrassAtlasError):
    """Fiber objects attached to different chart points were combined."""


class FactorMismatch(GrassAtlasError):
    """Supplied multiplier factors do not reproduce the fiber transition map."""


class LadderMismatch(GrassAtlasError):
    """Truncation ladder entries are not coherently embedded."""


class BadProfile(GrassAtlasError):
    """Invalid singular-value decay profile."""


class PredualUnavailable(GrassAtlasError):
    """Requested a precotangent fiber for a class that admits no predual."""


class ConfigError(GrassAtlasError):
    """Invalid verification suite configuration."""
