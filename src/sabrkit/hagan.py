"""Closed-form SABR implied volatility (Hagan-style asymptotic expansion).

The log-moneyness bracket {1 + (1-b)^2/24 ln^2 + (1-b)^4/1920 ln^4}
multiplies the leading term alpha/(F0*K)^((1-b)/2): the numerator
placement, which model files and dataset manifests record as
``"hagan_bracket": "numerator"`` (:data:`HAGAN_BRACKET`). This is the one
closed form the residual networks correct.

:func:`check_params` is the one check of the SABR parameter domain; the
other functions take the values of a valid :class:`SabrPoint`.
:func:`hagan_vol` prices one point; :func:`hagan_vols` prices columns of
them at once and agrees with it bit for bit. Neither returns inf or NaN.
Both run one formula body, with the C library's log and pow taken one
element at a time in the array form. Some valid points leave the band
where the formula is finite, such as forwards so small that the maturity
bracket overflows or F0*K underflows, or a ratio F0/K that underflows to
0; there both forms raise the same ZeroDivisionError, OverflowError or
:class:`~sabrkit.errors.NonFinite`. :func:`zx_ratio` at -rho also gives
the geometry's geodesic distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter

import numpy as np

from .errors import ConfigError, DomainError, NegativeVol, NonFinite

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

# Below this |z| the z/x(z) ratio switches to its first-order series.
_Z_SERIES_THRESHOLD = 1e-6

# numpy's SIMD log, pow and expm1 differ from the C library's by about an
# ulp, and cancellations such as the z/x(z) log's near |z| = 1e-6 amplify
# that. The array forms therefore call math.log/math.pow/math.expm1 element
# by element, like the scalar forms. Each element costs a Python-level
# call, so callers pass only the elements whose result they read. log and
# expm1 go through ufuncs made by np.frompyfunc and pow through np.fromiter
# over map(math.pow, ...): for each, the faster of the two ways, as timed
# on 1024-element arrays.
_log = np.frompyfunc(math.log, 1, 1)
_expm1 = np.frompyfunc(math.expm1, 1, 1)


def log_or_nan(x: float) -> float:
    """``math.log``, NaN where ``x <= 0``, as :func:`libm_log` element-wise:
    a ratio that underflows to 0 fails the caller's result check."""
    return math.log(x) if x > 0.0 else math.nan


def libm_log(x: np.ndarray) -> np.ndarray:
    """Element-wise ``math.log``, NaN where ``x <= 0``: there math.log
    raises, and a caller's result check finds the point instead."""
    return _log(np.where(x > 0.0, x, np.nan)).astype(float)


def libm_expm1(x: np.ndarray) -> np.ndarray:
    """Element-wise ``math.expm1``. It raises OverflowError only above
    ln(DBL_MAX), which no (1-b)*ln(K/F0) of finite K/F0 exceeds."""
    return _expm1(x).astype(float)


def libm_pow(x: np.ndarray, y) -> np.ndarray:
    """Element-wise ``math.pow`` of a 1-d array and a scalar or an array of
    the same length."""
    x = np.asarray(x, dtype=float)
    ys = y.tolist() if isinstance(y, np.ndarray) else repeat(float(y))
    return np.fromiter(map(math.pow, x.tolist(), ys), float, x.size)


def raise_scalar_failure(scalar, columns, failed) -> None:
    """Raise what ``scalar`` raises on the first point, among the indices
    ``failed`` in order, whose array-form result is not finite, with
    `` (point i)`` appended; NonFinite if none raises. The points are
    built from Python floats, since numpy scalars divide by zero without
    raising."""
    for i in failed:
        try:
            scalar(SabrPoint(*(float(c[i]) for c in columns)))
        except (ArithmeticError, ValueError) as exc:
            raise type(exc)(f"{exc} (point {i})") from None
    raise NonFinite(f"array form returned a non-finite value (point {failed[0]})")


def check_params(T, F0, alpha, beta, rho, nu, K=None) -> None:
    """Raise ConfigError outside the SABR domain (Hagan et al. 2002): T, F0,
    alpha and K (if given) finite and > 0, 0 <= beta <= 1, |rho| <= 0.95,
    nu finite and >= 0. NaN fails every bound."""
    for name, v in (("T", T), ("F0", F0), ("alpha", alpha), ("K", 1.0 if K is None else K)):
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {v!r}")
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
    """The factor z/x(z) with x(z) = ln((sqrt(1-2*rho*z+z^2)+z-rho)/(1-rho)).

    Continuous at z = 0 with value 1. For |z| < 1e-6 the closed form
    cancels catastrophically, so the first-order expansion
    z/x(z) = 1 - rho*z/2 + O(z^2) is used there. Raises DomainError where
    the discriminant is negative or, at very negative z, the log's argument
    cancels to 0 or below. Where z*z overflows, x(z) is inf and the factor
    comes out +-0. At -rho, x(q/alpha) is the geometry's geodesic distance.
    """
    if abs(z) < _Z_SERIES_THRESHOLD:
        return 1.0 - 0.5 * rho * z
    disc = 1.0 - 2.0 * rho * z + z * z
    if disc < 0.0:
        raise DomainError(f"1 - 2*rho*z + z^2 = {disc!r} < 0 at z={z!r}, rho={rho!r}")
    arg = (math.sqrt(disc) + z - rho) / (1.0 - rho)
    if arg <= 0.0:
        raise DomainError(f"x(z) log argument {arg!r} <= 0 at z={z!r}, rho={rho!r}")
    return z / math.log(arg)


def zx_ratios(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Array form of :func:`zx_ratio` over 1-d columns, equal to it bit for
    bit and NaN where it raises: sqrt of a negative discriminant is NaN, and
    so is :func:`libm_log` of an argument <= 0. The log is taken only where
    |z| >= 1e-6."""
    ratio = 1.0 - 0.5 * rho * z
    disc = 1.0 - 2.0 * rho * z + z * z
    closed = np.abs(z) >= _Z_SERIES_THRESHOLD
    zc, rc = z[closed], rho[closed]
    ratio[closed] = zc / libm_log((np.sqrt(disc[closed]) + zc - rc) / (1.0 - rc))
    return ratio


def _smile(T, F0, K, alpha, beta, rho, nu, log, pow, zx):
    """The closed form, for floats or 1-d columns: ``log``, ``pow`` and
    ``zx`` are the scalar or the array helpers. The operation order sets
    which exception a scalar point outside the finite band raises."""
    log_fk = log(F0 / K)
    omb = 1.0 - beta
    fk = F0 * K
    fk_pow_half = pow(fk, 0.5 * omb)
    fk_pow_1mb = pow(fk, omb)
    # A vanishing alpha can send z*z to inf; both forms overflow silently
    # there. Where zx raises, the array form's NaN fails its check.
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

    One formula at every strike: at K = F0, z = 0, :func:`zx_ratio` takes
    its series branch and gives 1, and the moneyness bracket is 1, so the
    result is the at-the-money formula alpha/F0^(1-b) times the maturity
    bracket (Hagan et al. 2002), and near the money it varies with K as the
    smile does. Raises NegativeVol on a nonpositive result and NonFinite on
    inf or NaN, as where F0/K underflows to 0 and its log is NaN.
    """
    sigma = _smile(p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu, log_or_nan, math.pow, zx_ratio)
    if sigma <= 0.0:
        raise NegativeVol(f"smile formula returned nonpositive vol {sigma!r}")
    if not math.isfinite(sigma):
        raise NonFinite(f"smile formula returned {sigma!r}")
    return sigma


# Outside the finite band numpy divides by zero, overflows or makes NaN
# where the scalar form raises or returns inf; the check of the results
# raises on every such point, so no floating-point warning is needed.
@np.errstate(all="ignore")
def hagan_vols(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`hagan_vol`: its formula body on 1-d columns that
    hold the fields of valid :class:`SabrPoint` values, with :func:`libm_log`,
    :func:`libm_pow` and :func:`zx_ratios`, so each result equals the scalar
    call's bit for bit. On a result that is not finite and positive, raises
    what the scalar call raises on the first such point (see
    :func:`raise_scalar_failure`); no libm call raises first, as
    :func:`libm_log` gives NaN where math.log would raise.
    """
    columns = [np.asarray(c, dtype=float) for c in (T, F0, K, alpha, beta, rho, nu)]
    sigma = _smile(*columns, libm_log, libm_pow, zx_ratios)
    failed = np.flatnonzero(~np.isfinite(sigma) | (sigma <= 0.0))
    if failed.size:
        raise_scalar_failure(hagan_vol, columns, failed)
    return sigma
