"""Closed-form SABR implied volatility (Hagan-style asymptotic expansion).

The log-moneyness bracket {1 + (1-b)^2/24 ln^2 + (1-b)^4/1920 ln^4}
multiplies the leading term alpha/(F0*K)^((1-b)/2): the numerator
placement, which model files and dataset manifests record as
``"hagan_bracket": "numerator"`` (:data:`HAGAN_BRACKET`). This is the one
closed form the residual networks correct.

:func:`check_params` is the one check of the SABR parameter domain; the
other functions take the values of a valid :class:`SabrPoint`.
:func:`hagan_vol` prices one point with the C library's log and pow;
:func:`hagan_vols` prices columns of them at once with numpy's ufuncs, and
agrees with it to 1e-12 relative. Both run one formula body. Where a valid
point leaves the band where the formula is finite and positive (tiny
forwards, or F0/K underflowing to 0), the array form gives NaN and the
scalar form raises DomainError, as :func:`checked` does at a batch's NaN.
The factor z/x(z) is one expression, free of cancellation at every z, the
money included; :func:`zx_ratio` at -rho also gives the geodesic distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "HAGAN_BRACKET",
    "SABR_FIELDS",
    "SabrPoint",
    "check_params",
    "hagan_vol",
    "hagan_vols",
    "sabr_values",
    "zx_ratio",
]

# The placement of the log-moneyness bracket in the formula below, as model
# files and dataset manifests record it.
HAGAN_BRACKET = "numerator"


def logs_or_nan(x: np.ndarray) -> np.ndarray:
    """``np.log``, NaN where ``x <= 0``, where ``math.log`` raises: a ratio
    that underflows to 0 fails as the scalar form does."""
    return np.log(x, out=np.full_like(x, np.nan), where=x > 0.0)


def checked(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, an array form's results with one row per point, if no row
    holds NaN; else raise DomainError naming ``what`` and the first such row."""
    nan = np.isnan(values)
    if nan.any():
        raise DomainError(f"{what} fails at point {np.argwhere(nan)[0, 0]}")
    return values


def check_positive(**values) -> None:
    """Raise ConfigError at the first named value that is not finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {v!r}")


def check_params(T, F0, alpha, beta, rho, nu, K=None) -> None:
    """Raise ConfigError outside the SABR domain (Hagan et al. 2002): T, F0,
    alpha and K (if given) finite and > 0, 0 <= beta <= 1, |rho| <= 0.95,
    nu finite and >= 0. NaN fails every bound."""
    check_positive(T=T, F0=F0, alpha=alpha)
    if K is not None:
        check_positive(K=K)
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta!r}")
    if not abs(rho) <= 0.95:
        raise ConfigError(f"rho must lie in [-0.95, 0.95], got {rho!r}")
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ConfigError(f"nu must be finite and >= 0, got {nu!r}")


@dataclass(frozen=True)
class SabrPoint:
    """One SABR pricing configuration (T, F0, K, alpha, beta, rho, nu)."""

    T: float
    F0: float
    K: float
    alpha: float
    beta: float
    rho: float
    nu: float

    def __post_init__(self) -> None:
        check_params(self.T, self.F0, self.alpha, self.beta, self.rho, self.nu, K=self.K)


# The one column order of the SABR inputs (network rows, dataset CSV).
SABR_FIELDS = tuple(f.name for f in fields(SabrPoint))
sabr_values = attrgetter(*SABR_FIELDS)


def zx_ratio(z: float, rho: float) -> float:
    """The factor z/x(z) with x(z) = ln((R+z-rho)/(1-rho)), R =
    sqrt(1-2*rho*z+z^2), in a form exact to an ulp at every z.

    With s = +1 where z >= rho and -1 below (x(z; rho) = -x(-z; -rho)),
    and R-1 = z*(z-2*rho)/(R+1), x = s*log1p((z*(z-2*rho)/(R+1) + s*z) /
    (1-s*rho)): no term cancels, beside z = 0 nor at large |z|. The factor
    is 1 where x is 0, at z = 0 or a subnormal z. R = hypot(z-rho,
    sqrt(1-rho^2)) stays finite where z*z overflows; there x is +-inf and
    the factor 0. At -rho, x(q/alpha) is the geometry's geodesic distance.
    """
    s = 1.0 if z >= rho else -1.0
    root = math.hypot(z - rho, math.sqrt(1.0 - rho * rho))
    x = s * math.log1p((z * (z - 2.0 * rho) / (root + 1.0) + s * z) / (1.0 - s * rho))
    return z / x if x else 1.0


def zx_ratios(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Array form of :func:`zx_ratio` over 1-d columns: the same expression
    in numpy's ufuncs. Where x is 0 it divides 0 by 0 before taking 1, so
    callers ignore floating-point errors."""
    s = np.where(z >= rho, 1.0, -1.0)
    root = np.hypot(z - rho, np.sqrt(1.0 - rho * rho))
    x = s * np.log1p((z * (z - 2.0 * rho) / (root + 1.0) + s * z) / (1.0 - s * rho))
    return np.where(x == 0.0, 1.0, z / x)


def _smile(T, F0, K, alpha, beta, rho, nu, log, pow, zx):
    """The closed form, for floats or 1-d columns: ``log``, ``pow`` and
    ``zx`` are the scalar or the array helpers."""
    log_fk = log(F0 / K)
    omb = 1.0 - beta
    fk = F0 * K
    fk_pow_half = pow(fk, 0.5 * omb)
    fk_pow_1mb = pow(fk, omb)
    # A vanishing alpha can send z*z past the float range; both forms
    # overflow silently there, x(z) is +-inf and z/x(z) comes out 0.
    ratio = zx(nu / alpha * fk_pow_half * log_fk, rho)
    log2 = log_fk * log_fk
    money = 1.0 + omb * omb / 24.0 * log2 + pow(omb, 4.0) / 1920.0 * log2 * log2
    core = alpha / fk_pow_half * money
    term1 = omb * omb * alpha * alpha / (24.0 * fk_pow_1mb)
    term2 = rho * beta * nu * alpha / (4.0 * fk_pow_half)
    term3 = (2.0 - 3.0 * rho * rho) * nu * nu / 24.0
    return core * ratio * (1.0 + T * (term1 + term2 + term3))


def hagan_vol(p: SabrPoint) -> float:
    """SABR implied volatility for one strike.

    One formula at every strike: at K = F0, z = 0, :func:`zx_ratio` gives
    1 and the moneyness bracket is 1, so the result is the at-the-money
    formula alpha/F0^(1-b) times the maturity bracket (Hagan et al. 2002),
    and near the money it varies with K as the smile does. Raises
    DomainError where the result is not finite and positive, as where F0*K
    underflows or the bracket goes negative; :func:`hagan_vols` is NaN there.
    """
    try:
        sigma = _smile(p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu, math.log, math.pow, zx_ratio)
    except (ArithmeticError, ValueError):
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"closed form fails: vol {sigma!r}")
    return sigma


@np.errstate(all="ignore")
def hagan_vols(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`hagan_vol` on 1-d float columns of valid points:
    NaN where it raises, with no exception or warning, and elsewhere within
    1e-12 relative of it, as numpy's ufuncs and libm differ by an ulp."""
    sigma = _smile(T, F0, K, alpha, beta, rho, nu, logs_or_nan, np.power, zx_ratios)
    return np.where((sigma > 0.0) & (sigma < math.inf), sigma, math.nan)
