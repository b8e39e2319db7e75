"""Geometry-driven smile features.

The SABR state space carries a hyperbolic structure: after flattening the
forward with the CEV integral and rotating out the correlation, the
dynamics live on the Poincare upper half-plane. The quadruple computed
here (flattened strike coordinate, minimizing terminal volatility,
geodesic distance, leading-order implied vol) summarizes that structure
per strike and is used as an enriched network input.

All quantities are evaluated on the strike manifold, i.e. at F = K. One
formula serves every strike and every beta: q = ln(K/F0)*s with the CEV
scale s = F0^(1-b)*expm1(u)/u at u = (1-b)*ln(K/F0), and the geodesic
distance is Hagan's x(z) at zeta = q/alpha with correlation -rho (the
hyperbolic reading of SABR, Henry-Labordere 2008), so sigma0 =
ln(K/F0)/d_h = alpha*(zeta/x(zeta))/s stays finite through the money.
:func:`features` takes one point; :func:`features_array` takes columns of
them at once with numpy's ufuncs, and agrees with it to 1e-12 relative.
Both run one formula body; the array form gives a NaN row where the
scalar form raises DomainError, under the rule of :mod:`~sabrkit.hagan`.
The helpers take the values of a valid :class:`SabrPoint`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import DomainError
from .hagan import SabrPoint, logs_or_nan, zx_ratio, zx_ratios

__all__ = [
    "GEOM_FIELDS",
    "GeomFeatures",
    "features",
    "features_array",
    "geom_values",
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


# The one column order of the geometry inputs (network rows, dataset CSV).
GEOM_FIELDS = tuple(f.name for f in fields(GeomFeatures))
geom_values = attrgetter(*GEOM_FIELDS)


def _expm1_ratio(u: float) -> float:
    """expm1(u)/u, 1 at u = 0 (the money and beta = 1), with no
    cancellation near either."""
    return math.expm1(u) / u if u else 1.0


def _expm1_ratios(u: np.ndarray) -> np.ndarray:
    """Array form of :func:`_expm1_ratio`."""
    return np.where(u == 0.0, 1.0, np.expm1(u) / u)


def _quadruple(F0, K, alpha, beta, rho, log, pow, expm1_ratio, sqrt, zx):
    """The feature formulas for floats or 1-d columns, given the scalar or
    the array ``log``, ``pow``, ``expm1_ratio``, ``sqrt`` and ``zx``:
    (q, sigma_min, zeta, z/x(zeta), s), whence the caller divides out d_h
    = zeta/(z/x) and sigma0 = alpha*(z/x)/s."""
    log_kf = log(K / F0)
    omb = 1.0 - beta
    s = pow(F0, omb) * expm1_ratio(omb * log_kf)
    q = log_kf * s
    smin = sqrt(alpha * alpha + 2.0 * rho * alpha * q + q * q)
    zeta = q / alpha
    return q, smin, zeta, zx(zeta, -rho), s


def features(p: SabrPoint) -> GeomFeatures:
    """Full feature quadruple for one pricing configuration.

    ``q`` is the CEV-flattened strike, the integral of f^(-beta) from F0
    to K; ``sigma_min`` = sqrt(alpha^2 + 2*rho*alpha*q + q^2) is the
    terminal vol minimizing the hyperbolic action to the strike, at least
    alpha*sqrt(1-rho^2). ``d_h`` = ln((sigma_min + rho*alpha + q) /
    ((1+rho)*alpha)) is x(zeta) of :func:`~sabrkit.hagan.zx_ratio` at
    zeta = q/alpha and correlation -rho; ``sigma0`` = ln(K/F0)/d_h =
    alpha*(zeta/x(zeta))/s is alpha*F0^(beta-1) at the money. Raises
    DomainError where a value is not finite, as where q^2 overflows at huge
    forwards, or zeta^2 inside x(zeta) at a vanishing alpha, so that z/x(z)
    is 0; :func:`features_array` gives a NaN row there.
    """
    try:
        q, smin, zeta, ratio, s = _quadruple(p.F0, p.K, p.alpha, p.beta, p.rho, math.log,
                                             math.pow, _expm1_ratio, math.sqrt, zx_ratio)
        quad = (q, smin, zeta / ratio, p.alpha * ratio / s)
    except (ArithmeticError, ValueError):
        quad = (math.nan,) * 4
    if not all(map(math.isfinite, quad)):
        raise DomainError(f"feature quadruple fails: {quad!r}")
    return GeomFeatures(*quad)


@np.errstate(all="ignore")
def features_array(T, F0, K, alpha, beta, rho, nu) -> np.ndarray:
    """Array form of :func:`features`: (n, 4) rows of (q, sigma_min, d_h,
    sigma0), all NaN where it raises, under the rule of
    :func:`~sabrkit.hagan.hagan_vols`. ``T`` and ``nu`` are unused."""
    q, smin, zeta, ratio, s = _quadruple(F0, K, alpha, beta, rho, logs_or_nan, np.power,
                                         _expm1_ratios, np.sqrt, zx_ratios)
    out = np.column_stack((q, smin, zeta / ratio, alpha * ratio / s))
    out[~np.isfinite(out).all(axis=1)] = math.nan
    return out
