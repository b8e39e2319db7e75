"""Exception types shared across the toolkit. The command line exits 2 on
a :class:`ConfigError` (bad input) and 3 on any other :class:`SabrkitError`."""


class SabrkitError(Exception):
    """Base class for all toolkit-specific failures."""


class PriceOutOfBounds(SabrkitError, ValueError):
    """Option price outside the invertible interval (intrinsic, forward)."""


class NoConvergence(SabrkitError, RuntimeError):
    """Iterative solver exhausted its iteration budget."""


class DomainError(SabrkitError, ValueError):
    """A valid point left the band where the closed form or the features are finite."""


class NegativeVol(SabrkitError, ValueError):
    """A model served a nonpositive volatility."""


class ConfigError(SabrkitError, ValueError):
    """Invalid engine or pipeline configuration."""


class NonFinite(SabrkitError, ArithmeticError):
    """A computation produced NaN or infinity."""


class ShapeMismatch(ConfigError):
    """Array shapes inconsistent with the network architecture."""


class Diverged(SabrkitError, RuntimeError):
    """Training produced a non-finite validation loss."""


class DegenerateReference(ConfigError):
    """Reference series has no variance; R^2 undefined."""


class EmptyRegion(ConfigError):
    """A requested evaluation region contains no rows."""
