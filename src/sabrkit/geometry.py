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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hagan import ATM_LOG_THRESHOLD, BETA_ONE_THRESHOLD, SabrPoint, libm_log, libm_pow

__all__ = [
    "GeomFeatures",
    "features",
    "features_array",
    "q_transform",
    "sigma_min",
]


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
    is undefined or vanishes away from the money.
    """
    q = q_transform(p.F0, p.K, p.beta)
    smin = sigma_min(p.alpha, p.rho, q)
    log_kf = math.log(p.K / p.F0)
    # At the money d_h is exactly 0; the generic path would divide 0 by 0.
    if abs(log_kf) < ATM_LOG_THRESHOLD:
        return GeomFeatures(q=q, sigma_min=smin, d_h=0.0,
                            sigma0=p.alpha * p.F0 ** (p.beta - 1.0))
    d_h = _distance(p.alpha, p.rho, q, smin)
    if d_h == 0.0:
        raise DomainError("zero geodesic distance away from the money")
    return GeomFeatures(q=q, sigma_min=smin, d_h=d_h, sigma0=log_kf / d_h)


def features_array(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`features`: an (n, 4) array of (q, sigma_min,
    d_h, sigma0) rows for 1-d parameter columns of valid points.

    Each row equals the scalar call's bit for bit; the ATM and beta ~ 1
    branches are masks. Raises DomainError when any point leaves the
    formulas' domain, as the scalar call on that point does. ``T`` is
    unused, as in the scalar form.
    """
    F0, K, alpha, beta, rho = (np.asarray(c, dtype=float) for c in (F0, K, alpha, beta, rho))
    log_kf = libm_log(K / F0)
    atm = np.abs(log_kf) < ATM_LOG_THRESHOLD
    omb = 1.0 - beta
    lognormal = omb < BETA_ONE_THRESHOLD
    power = np.where(lognormal, 1.0, omb)
    q = np.where(lognormal, log_kf, (libm_pow(K, power) - libm_pow(F0, power)) / power)
    smin = np.sqrt(alpha * alpha + 2.0 * rho * alpha * q + q * q)

    off = ~atm
    arg = (smin[off] + rho[off] * alpha[off] + q[off]) / ((1.0 + rho[off]) * alpha[off])
    if np.any(arg <= 0.0):
        raise DomainError("geodesic log argument <= 0 at "
                          f"q={q[off][arg <= 0.0][0]!r}")
    d_h = np.zeros_like(q)
    d_h[off] = libm_log(arg)
    if np.any(d_h[off] == 0.0):
        raise DomainError("zero geodesic distance away from the money")
    sigma0 = np.empty_like(q)
    sigma0[off] = log_kf[off] / d_h[off]
    sigma0[atm] = alpha[atm] * libm_pow(F0[atm], beta[atm] - 1.0)
    return np.column_stack((q, smin, d_h, sigma0))
