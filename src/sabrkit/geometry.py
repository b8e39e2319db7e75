"""Geometry-driven smile features.

The SABR state space carries a hyperbolic structure: after flattening the
forward with the CEV integral and rotating out the correlation, the
dynamics live on the Poincare upper half-plane. The quadruple computed
here (flattened strike coordinate, minimizing terminal volatility,
geodesic distance, leading-order implied vol) summarizes that structure
per strike and is used as an enriched network input.

All quantities are evaluated on the strike manifold, i.e. at F = K.
:func:`features` takes one point; :func:`features_array` takes columns of
them and agrees with it bit for bit. The helpers take the values of a
valid :class:`SabrPoint`, whose construction checks the parameter domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import DomainError, NonFinite
from .hagan import BETA_ONE_THRESHOLD, SabrPoint, libm_log, libm_pow, raise_scalar_failure

__all__ = [
    "GEOM_FIELDS",
    "GeomFeatures",
    "features",
    "features_array",
    "geom_values",
    "q_transform",
    "sigma_min",
]

# Strikes with |ln(K/F0)| below this take sigma0's at-the-money limit
# alpha*F0^(beta-1): there d_h is 0 too, so ln(K/F0)/d_h is 0/0, and
# nearby both vanish together and cancel catastrophically.
ATM_LOG_THRESHOLD = 1e-8


@dataclass(frozen=True)
class GeomFeatures:
    """Feature quadruple (q, sigma_min, d_h, sigma0) for one strike.

    ``d_h`` is signed: negative for strikes below the forward, zero only
    at q = 0. ``sigma0`` stays positive because the log-moneyness flips
    sign together with the distance.
    """

    q: float
    sigma_min: float
    d_h: float
    sigma0: float


# The one column order of the geometry inputs (network rows, dataset CSV).
GEOM_FIELDS = tuple(f.name for f in fields(GeomFeatures))
geom_values = attrgetter(*GEOM_FIELDS)


def q_transform(F0: float, K: float, beta: float) -> float:
    """CEV-flattened strike coordinate, the integral of f^(-beta) from F0 to K."""
    omb = 1.0 - beta
    if omb < BETA_ONE_THRESHOLD:
        return math.log(K / F0)
    return (K**omb - F0**omb) / omb


def sigma_min(alpha: float, rho: float, q: float) -> float:
    """Terminal volatility minimizing the hyperbolic action to the strike.

    Closed form sqrt(alpha^2 + 2*rho*alpha*q + q^2); bounded below by
    alpha*sqrt(1-rho^2).
    """
    return math.sqrt(alpha * alpha + 2.0 * rho * alpha * q + q * q)


def _distance(alpha: float, rho: float, q: float, smin: float) -> float:
    """Signed hyperbolic geodesic distance from (0, alpha) to the strike
    manifold, ln((smin + rho*alpha + q) / ((1+rho)*alpha)) with smin =
    sigma_min(alpha, rho, q); zero exactly at q = 0, negative for q < 0.
    The magnitude equals the half-plane distance between (0, alpha) and
    (q, smin)."""
    arg = (smin + rho * alpha + q) / ((1.0 + rho) * alpha)
    if arg <= 0.0:
        raise DomainError(f"geodesic log argument {arg!r} <= 0 at q={q!r}")
    return math.log(arg)


def features(p: SabrPoint) -> GeomFeatures:
    """Full feature quadruple for one pricing configuration.

    ``sigma0`` is the leading-order implied vol ln(K/F0)/d_h, with the ATM
    limit alpha*F0^(beta-1). Raises DomainError where the geodesic distance
    is undefined or vanishes away from the money, and NonFinite where a
    value comes out inf or NaN, as at forwards so large that q^2 overflows.
    """
    q = q_transform(p.F0, p.K, p.beta)
    smin = sigma_min(p.alpha, p.rho, q)
    log_kf = math.log(p.K / p.F0)
    # At the money d_h is exactly 0; the generic path would divide 0 by 0.
    if abs(log_kf) < ATM_LOG_THRESHOLD:
        d_h, sigma0 = 0.0, p.alpha * p.F0 ** (p.beta - 1.0)
    else:
        d_h = _distance(p.alpha, p.rho, q, smin)
        if d_h == 0.0:
            raise DomainError("zero geodesic distance away from the money")
        sigma0 = log_kf / d_h
    if not (math.isfinite(q) and math.isfinite(smin) and math.isfinite(d_h)
            and math.isfinite(sigma0)):
        raise NonFinite(f"features returned q={q!r}, sigma_min={smin!r}, d_h={d_h!r}, "
                        f"sigma0={sigma0!r}")
    return GeomFeatures(q=q, sigma_min=smin, d_h=d_h, sigma0=sigma0)


# As in hagan_vols: numpy makes inf or NaN where the scalar form raises, and
# the check of the results raises on every such point.
@np.errstate(all="ignore")
def features_array(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`features`: an (n, 4) array of (q, sigma_min,
    d_h, sigma0) rows for 1-d parameter columns of valid points.

    Each row equals the scalar call's bit for bit; the ATM and beta ~ 1
    branches are masks. On a row that is not finite, raises what the scalar
    call raises on the first such point, with `` (point i)`` appended
    (:func:`~sabrkit.hagan.raise_scalar_failure`). ``T`` is unused, as in
    the scalar form.
    """
    columns = [np.asarray(c, dtype=float) for c in (T, F0, K, alpha, beta, rho, nu)]
    _, F0, K, alpha, beta, rho, _ = columns
    log_kf = libm_log(K / F0)
    atm = np.abs(log_kf) < ATM_LOG_THRESHOLD
    omb = 1.0 - beta
    lognormal = omb < BETA_ONE_THRESHOLD
    power = np.where(lognormal, 1.0, omb)
    q = np.where(lognormal, log_kf, (libm_pow(K, power) - libm_pow(F0, power)) / power)
    smin = np.sqrt(alpha * alpha + 2.0 * rho * alpha * q + q * q)

    off = ~atm
    # Where the scalar form raises DomainError, the log's argument is <= 0
    # (libm_log gives NaN) or d_h is 0 (sigma0 is +-inf).
    arg = (smin[off] + rho[off] * alpha[off] + q[off]) / ((1.0 + rho[off]) * alpha[off])
    d_h = np.zeros_like(q)
    d_h[off] = libm_log(arg)
    sigma0 = np.empty_like(q)
    sigma0[off] = log_kf[off] / d_h[off]
    try:
        sigma0[atm] = alpha[atm] * libm_pow(F0[atm], beta[atm] - 1.0)
    except OverflowError:
        # math.pow overflowed at a tiny forward; the check below finds the
        # point by trying each at-the-money row in the scalar form.
        sigma0[atm] = np.nan
    out = np.column_stack((q, smin, d_h, sigma0))
    failed = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if failed.size:
        raise_scalar_failure(features, columns, failed)
    return out
