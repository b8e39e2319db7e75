"""Black forward pricing and robust implied volatility inversion.

All prices are undiscounted forward-measure call prices. The solver is a
bisection-bracketed Newton iteration on the analytic vega, which keeps the
quadratic convergence of Newton while never leaving a valid bracket.
"""

from __future__ import annotations

import math

from .errors import NoConvergence, PriceOutOfBounds
from .hagan import check_positive

__all__ = [
    "black_price",
    "black_vega",
    "implied_vol",
    "norm_cdf",
    "norm_pdf",
]

# Below this total volatility the price is intrinsic to double precision
# and d1 is numerically 0/0.
_MIN_TOTAL_VOL = 1e-10

_PRICE_RTOL = 1e-12       # price residual tolerance, relative to F0
_VOL_RTOL = 1e-9          # vol-step tolerance, relative to sigma
_MAX_ITER = 200
_BRACKET_LO = 1e-8
_BRACKET_HI = 5.0
_BRACKET_HI_MAX = 100.0

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate to machine precision in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def black_price(T: float, F0: float, K: float, sigma: float) -> float:
    """Undiscounted Black call price F0*N(d1) - K*N(d2)."""
    check_positive(T=T, F0=F0, K=K)
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    vol = sigma * math.sqrt(T)
    if vol < _MIN_TOTAL_VOL:
        return max(F0 - K, 0.0)
    d1 = (math.log(F0 / K) + 0.5 * vol * vol) / vol
    d2 = d1 - vol
    return F0 * norm_cdf(d1) - K * norm_cdf(d2)


def black_vega(T: float, F0: float, K: float, sigma: float) -> float:
    """d(price)/d(sigma); zero below the intrinsic-value vol floor."""
    vol = sigma * math.sqrt(T)
    if vol < _MIN_TOTAL_VOL:
        return 0.0
    d1 = (math.log(F0 / K) + 0.5 * vol * vol) / vol
    return F0 * norm_pdf(d1) * math.sqrt(T)


def implied_vol(price: float, T: float, F0: float, K: float) -> float:
    """Invert the Black formula for the call volatility.

    Requires a price strictly between intrinsic value and the forward.
    Converges when the price residual is below 1e-12*F0 and the iteration
    has stabilised in volatility, so that recovered vols are accurate even
    for tiny out-of-the-money prices.

    Raises PriceOutOfBounds for non-invertible prices and NoConvergence if
    the iteration budget is exhausted (pathological input).
    """
    check_positive(T=T, F0=F0, K=K)
    if not math.isfinite(price):
        raise PriceOutOfBounds(f"price must be finite, got {price!r}")
    intrinsic = max(F0 - K, 0.0)
    if price <= intrinsic or price >= F0:
        raise PriceOutOfBounds(
            f"price {price!r} outside invertible interval ({intrinsic!r}, {F0!r})"
        )

    lo, hi = _BRACKET_LO, _BRACKET_HI
    while black_price(T, F0, K, hi) < price:
        hi *= 2.0
        if hi > _BRACKET_HI_MAX:
            raise NoConvergence(f"no vol below {_BRACKET_HI_MAX} reprices {price!r}")

    tol = _PRICE_RTOL * F0
    sigma = 0.5 * (lo + hi)
    width_then = hi - lo
    for iteration in range(_MAX_ITER):
        diff = black_price(T, F0, K, sigma) - price
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = black_vega(T, F0, K, sigma)
        if vega > 0.0:
            candidate = sigma - diff / vega
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
        else:
            candidate = 0.5 * (lo + hi)
        # Deep in the tails Newton creeps linearly from one side; force a
        # bisection whenever two iterations failed to halve the bracket, so
        # the bracket collapse stays geometric.
        if iteration % 2 == 1:
            if (hi - lo) > 0.5 * width_then:
                candidate = 0.5 * (lo + hi)
            width_then = hi - lo
        converged_vol = (
            abs(candidate - sigma) <= _VOL_RTOL * max(sigma, _BRACKET_LO)
            or (hi - lo) <= _VOL_RTOL * max(sigma, _BRACKET_LO)
        )
        if abs(diff) <= tol and converged_vol:
            return sigma
        sigma = candidate
    raise NoConvergence(f"implied vol did not converge in {_MAX_ITER} iterations")
