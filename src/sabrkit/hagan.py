"""Closed-form SABR implied volatility (Hagan-style asymptotic expansion).

The log-moneyness bracket {1 + (1-b)^2/24 ln^2 + (1-b)^4/1920 ln^4}
multiplies the leading term alpha/(F0*K)^((1-b)/2): the numerator
placement, which model files and dataset manifests record as
``"hagan_bracket": "numerator"`` (:data:`HAGAN_BRACKET`). This is the one
closed form the residual networks correct.

:func:`check_params` is the one check of the SABR parameter domain; the
other functions take the values of a valid :class:`SabrPoint`.
:func:`hagan_vol` prices one point; :func:`hagan_vols` prices columns of
them at once and agrees with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NegativeVol

__all__ = [
    "HAGAN_BRACKET",
    "SabrPoint",
    "check_params",
    "hagan_atm",
    "hagan_vol",
    "hagan_vols",
    "zx_ratio",
]

# The placement of the log-moneyness bracket in the formula below, as model
# files and dataset manifests record it.
HAGAN_BRACKET = "numerator"

# Strikes with |ln(F0/K)| below this are priced with the ATM formula; the
# general expression is 0/0 at z = 0 and cancels catastrophically nearby.
ATM_LOG_THRESHOLD = 1e-8

# Below this |z| the z/x(z) ratio switches to its first-order series.
_Z_SERIES_THRESHOLD = 1e-6

# Powers of (1 - beta) are treated as exactly zero beyond this point, so the
# lognormal edge case never sees spurious (F0*K)^eps factors; the CEV
# integral in geometry takes its log form here, as the power form loses
# ~1/(1-beta) digits to cancellation.
BETA_ONE_THRESHOLD = 1e-9

# numpy's SIMD log and pow differ from the C library's by about an ulp, and
# cancellations such as (K^(1-b) - F0^(1-b))/(1-b) amplify that to 2e-13.
# The array forms therefore call math.log/math.pow element by element, like
# the scalar forms, and keep all other arithmetic in numpy, in the scalar
# forms' operation order, so both agree bit for bit.
_log = np.frompyfunc(math.log, 1, 1)
_pow = np.frompyfunc(math.pow, 2, 1)


def libm_log(x: np.ndarray) -> np.ndarray:
    """Element-wise ``math.log``."""
    return _log(x).astype(float)


def libm_pow(x: np.ndarray, y) -> np.ndarray:
    """Element-wise ``math.pow``."""
    return _pow(x, y).astype(float)


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


def zx_ratio(z: float, rho: float) -> float:
    """The factor z/x(z) with x(z) = ln((sqrt(1-2*rho*z+z^2)+z-rho)/(1-rho)).

    Continuous at z = 0 with value 1. For |z| < 1e-6 the closed form
    cancels catastrophically, so the first-order expansion
    z/x(z) = 1 - rho*z/2 + O(z^2) is used there.
    """
    if abs(z) < _Z_SERIES_THRESHOLD:
        return 1.0 - 0.5 * rho * z
    disc = 1.0 - 2.0 * rho * z + z * z
    if disc < 0.0:
        raise DomainError(f"1 - 2*rho*z + z^2 = {disc!r} < 0 at z={z!r}, rho={rho!r}")
    x = math.log((math.sqrt(disc) + z - rho) / (1.0 - rho))
    return z / x


def _one_minus_beta(beta: float) -> float:
    omb = 1.0 - beta
    return 0.0 if omb < BETA_ONE_THRESHOLD else omb


def _maturity_bracket(p: SabrPoint, fk_pow_1mb: float, fk_pow_half: float) -> float:
    omb = _one_minus_beta(p.beta)
    term1 = omb * omb * p.alpha * p.alpha / (24.0 * fk_pow_1mb)
    term2 = p.rho * p.beta * p.nu * p.alpha / (4.0 * fk_pow_half)
    term3 = (2.0 - 3.0 * p.rho * p.rho) * p.nu * p.nu / 24.0
    return 1.0 + p.T * (term1 + term2 + term3)


def hagan_atm(p: SabrPoint) -> float:
    """At-the-money closed form; the strike field of ``p`` is ignored.

    Raises NegativeVol when the maturity bracket drives the result to zero
    or below, which signals leaving the expansion's validity domain.
    """
    omb = _one_minus_beta(p.beta)
    f_pow_1mb = p.F0**omb if omb > 0.0 else 1.0
    bracket = _maturity_bracket(p, f_pow_1mb * f_pow_1mb, f_pow_1mb)
    sigma = p.alpha / f_pow_1mb * bracket
    if sigma <= 0.0:
        raise NegativeVol(f"ATM bracket {bracket!r} makes the vol nonpositive")
    return sigma


def hagan_vol(p: SabrPoint) -> float:
    """SABR implied volatility for one strike.

    Dispatches to :func:`hagan_atm` when |ln(F0/K)| < 1e-8 so the ATM point
    is evaluated with the exact reduced formula rather than a 0/0 limit.
    """
    log_fk = math.log(p.F0 / p.K)
    if abs(log_fk) < ATM_LOG_THRESHOLD:
        return hagan_atm(p)

    omb = _one_minus_beta(p.beta)
    if omb > 0.0:
        fk_pow_half = (p.F0 * p.K) ** (0.5 * omb)
        fk_pow_1mb = (p.F0 * p.K) ** omb
    else:
        fk_pow_half = 1.0
        fk_pow_1mb = 1.0

    z = p.nu / p.alpha * fk_pow_half * log_fk
    ratio = zx_ratio(z, p.rho)

    log2 = log_fk * log_fk
    money = 1.0 + omb * omb / 24.0 * log2 + omb**4 / 1920.0 * log2 * log2
    core = p.alpha / fk_pow_half * money

    sigma = core * ratio * _maturity_bracket(p, fk_pow_1mb, fk_pow_half)
    if sigma <= 0.0:
        raise NegativeVol(f"smile formula returned nonpositive vol {sigma!r}")
    return sigma


def hagan_vols(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`hagan_vol` over parameter columns.

    The 1-d columns hold the fields of valid :class:`SabrPoint` values. Each
    result equals the scalar call's bit for bit; the ATM dispatch, the
    z-series and the beta ~ 1 branches are masks. When points leave the
    formula's domain, raises what the scalar call raises on the first one.
    """
    T, F0, K, alpha, beta, rho, nu = (np.asarray(c, dtype=float)
                                      for c in (T, F0, K, alpha, beta, rho, nu))
    log_fk = libm_log(F0 / K)
    atm = np.abs(log_fk) < ATM_LOG_THRESHOLD
    omb = 1.0 - beta
    omb = np.where(omb < BETA_ONE_THRESHOLD, 0.0, omb)
    # pow(x, 0) == 1 exactly, which is the beta ~ 1 branch's value.
    f_pow_1mb = libm_pow(F0, omb)
    fk = F0 * K
    fk_pow_half = np.where(atm, f_pow_1mb, libm_pow(fk, 0.5 * omb))
    fk_pow_1mb = np.where(atm, f_pow_1mb * f_pow_1mb, libm_pow(fk, omb))
    term1 = omb * omb * alpha * alpha / (24.0 * fk_pow_1mb)
    term2 = rho * beta * nu * alpha / (4.0 * fk_pow_half)
    term3 = (2.0 - 3.0 * rho * rho) * nu * nu / 24.0
    maturity = 1.0 + T * (term1 + term2 + term3)

    z = nu / alpha * fk_pow_half * log_fk
    ratio = 1.0 - 0.5 * rho * z
    # A vanishing alpha can send z*z to inf; the scalar form overflows
    # silently there too, and both forms give the same result.
    with np.errstate(over="ignore"):
        disc = 1.0 - 2.0 * rho * z + z * z
    closed = ~atm & (np.abs(z) >= _Z_SERIES_THRESHOLD)
    domain = closed & (disc < 0.0)
    closed &= ~domain
    zc, rc = z[closed], rho[closed]
    ratio[closed] = zc / libm_log((np.sqrt(disc[closed]) + zc - rc) / (1.0 - rc))

    log2 = log_fk * log_fk
    money = 1.0 + omb * omb / 24.0 * log2 + libm_pow(omb, 4.0) / 1920.0 * log2 * log2
    core = alpha / fk_pow_half * money
    sigma = np.where(atm, alpha / f_pow_1mb * maturity, core * ratio * maturity)

    failed = np.flatnonzero(domain | (sigma <= 0.0))
    if failed.size:
        i = failed[0]
        if domain[i]:
            raise DomainError(f"1 - 2*rho*z + z^2 = {disc[i]!r} < 0 at z={z[i]!r}, "
                              f"rho={rho[i]!r} (point {i})")
        raise NegativeVol(f"smile formula returned nonpositive vol {sigma[i]!r} (point {i})")
    return sigma
