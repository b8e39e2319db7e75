"""Exception types shared across the toolkit. The command line exits 2 on
a :class:`ConfigError` (bad input) and 3 on any other :class:`SabrkitError`.
A class stays only while code tells it apart: ``load_dataset`` and
``load_model`` re-raise ``ConfigError`` with the file name; ``reference_smile``
catches ``PriceOutOfBounds``, ``NoConvergence`` and ``NonFinite``, perfbench
counts the first two and ``DomainError`` and imports ``NegativeVol``, and
``stress_suite`` and the command line catch ``SabrkitError``."""


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
    """Invalid input: a flag, a configuration, a file or an array shape."""


class NonFinite(SabrkitError, ArithmeticError):
    """A computation produced NaN or infinity."""
