"""Monte Carlo pricing of SABR calls with a coupled lognormal control variate.

The SABR forward and a constant-volatility reference forward are stepped
jointly on one uniform grid, sharing the same Brownian increments, so the
payoff difference has much lower variance than the raw payoff. Adding the
analytic Black price of the reference leg gives the estimator

    price = mean(payoff_sabr - payoff_black) + C_Black(T, F0, K, sigma_bar)

Terminal values are simulated once per parameter configuration and reused
across every strike, so a full smile costs the same random draws as a
single option.

Paths are generated in fixed-size blocks, each with its own stream spawned
from (base_seed, config_index, block_index). Results are therefore
bit-reproducible regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, NonFinite
from .hagan import SabrPoint, check_params
from .pricing import black_price, black_vega, implied_vol

__all__ = [
    "CV_VOL_MODES",
    "McConfig",
    "McImpliedVol",
    "PriceEstimate",
    "Terminals",
    "cv_price",
    "price_from_terminals",
    "simulate_terminals",
]

CV_VOL_MODES = ("paper_alpha", "effective_atm")
SIGMA_SCHEMES = ("log_exact", "euler_strict")


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and scheme switches.

    ``sigma_bar`` is derived from ``cv_vol_mode``: the initial vol alpha, or
    alpha*F0^(beta-1) which matches the at-the-money lognormal level and
    couples better when beta < 1 and F0 is far from 1. Every maturity gets
    at least ``min_steps`` steps, and paths are drawn in blocks of
    ``block_size``, each block from its own stream.
    """

    min_steps: ClassVar[int] = 10
    block_size: ClassVar[int] = 4096

    paths: int = 100_000
    steps_per_year: int = 50
    cv_vol_mode: str = "paper_alpha"
    sigma_scheme: str = "log_exact"
    base_seed: int = 42

    def __post_init__(self) -> None:
        if self.paths < 1000:
            raise ConfigError(f"paths must be >= 1000, got {self.paths!r}")
        if self.steps_per_year < 1:
            raise ConfigError("steps_per_year must be >= 1")
        if self.cv_vol_mode not in CV_VOL_MODES:
            raise ConfigError(f"cv_vol_mode must be one of {CV_VOL_MODES}")
        if self.sigma_scheme not in SIGMA_SCHEMES:
            raise ConfigError(f"sigma_scheme must be one of {SIGMA_SCHEMES}")

    def n_steps(self, T: float) -> int:
        return max(self.min_steps, math.ceil(self.steps_per_year * T))

    def sigma_bar(self, alpha: float, F0: float, beta: float) -> float:
        if self.cv_vol_mode == "paper_alpha":
            return alpha
        return alpha * F0 ** (beta - 1.0)

    def record(self) -> dict:
        """Every setting, the fixed ones included, as dataset manifests and
        evaluation reports store them."""
        return {**asdict(self), "min_steps": self.min_steps, "block_size": self.block_size}


@dataclass(frozen=True)
class PriceEstimate:
    price: float
    std_error: float
    paths_used: int


@dataclass(frozen=True)
class McImpliedVol:
    """Implied vol of a Monte Carlo price with a propagated error estimate."""

    sigma: float
    vol_std_error: float
    estimate: PriceEstimate


@dataclass(frozen=True)
class Terminals:
    """Paired terminal forwards of the SABR and control-variate processes."""

    T: float
    F0: float
    alpha: float
    beta: float
    rho: float
    nu: float
    sigma_bar: float
    f_sabr: np.ndarray
    f_black: np.ndarray


def simulate_terminals(
    T: float,
    F0: float,
    alpha: float,
    beta: float,
    rho: float,
    nu: float,
    cfg: McConfig,
    config_index: int = 0,
) -> Terminals:
    """Simulate paired terminal forwards for one parameter configuration.

    Euler steps with full truncation for the SABR forward (F^beta taken on
    max(F, 0), absorption at zero for beta < 1); the volatility factor is
    either stepped in log space, which is exact in distribution for the
    lognormal vol, or with the plain Euler recursion. Parameters outside
    the SABR domain raise ConfigError from :func:`check_params`.
    """
    check_params(T, F0, alpha, beta, rho, nu)
    n_steps = cfg.n_steps(T)
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    rho_perp = math.sqrt(1.0 - rho * rho)
    sigma_bar = cfg.sigma_bar(alpha, F0, beta)
    log_exact = cfg.sigma_scheme == "log_exact"
    lognormal_forward = beta >= 1.0

    f_sabr = np.empty(cfg.paths)
    f_black = np.empty(cfg.paths)
    done = 0
    block_index = 0
    while done < cfg.paths:
        width = min(cfg.block_size, cfg.paths - done)
        seq = np.random.SeedSequence(cfg.base_seed, spawn_key=(config_index, block_index))
        rng = np.random.Generator(np.random.PCG64(seq))
        dw = rng.standard_normal((n_steps, width)) * sqrt_dt
        dw_perp = rng.standard_normal((n_steps, width)) * sqrt_dt

        f = np.full(width, F0, dtype=float)
        fb = np.full(width, F0, dtype=float)
        sigma = np.full(width, alpha, dtype=float)
        for k in range(n_steps):
            dw_k = dw[k]
            dz_k = rho * dw_k + rho_perp * dw_perp[k]
            f += sigma * np.maximum(f, 0.0) ** beta * dw_k
            if not lognormal_forward:
                np.maximum(f, 0.0, out=f)
            fb += sigma_bar * fb * dw_k
            if log_exact:
                sigma *= np.exp(nu * dz_k - 0.5 * nu * nu * dt)
            else:
                sigma *= 1.0 + nu * dz_k
        f_sabr[done : done + width] = f
        f_black[done : done + width] = fb
        done += width
        block_index += 1

    return Terminals(
        T=T, F0=F0, alpha=alpha, beta=beta, rho=rho, nu=nu,
        sigma_bar=sigma_bar, f_sabr=f_sabr, f_black=f_black,
    )


def price_from_terminals(terminals: Terminals, K: float) -> PriceEstimate:
    """Control-variate call price for one strike from simulated terminals."""
    diffs = np.maximum(terminals.f_sabr - K, 0.0) - np.maximum(terminals.f_black - K, 0.0)
    if not np.all(np.isfinite(diffs)):
        raise NonFinite("non-finite payoff encountered")
    n = diffs.size
    anchor = black_price(terminals.T, terminals.F0, K, terminals.sigma_bar)
    price = float(diffs.mean()) + anchor
    std_error = float(diffs.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return PriceEstimate(price=price, std_error=std_error, paths_used=n)


def cv_price(p: SabrPoint, cfg: McConfig, config_index: int = 0) -> PriceEstimate:
    """Simulate and price one configuration at its own strike."""
    terminals = simulate_terminals(p.T, p.F0, p.alpha, p.beta, p.rho, p.nu, cfg, config_index)
    return price_from_terminals(terminals, p.K)


def implied_vol_from_estimate(
    estimate: PriceEstimate, T: float, F0: float, K: float
) -> McImpliedVol:
    """Invert a price estimate and propagate its standard error to vol units.

    Raises PriceOutOfBounds when the estimate landed outside the invertible
    interval; callers building datasets mark such rows invalid.
    """
    sigma = implied_vol(estimate.price, T, F0, K)
    vega = black_vega(T, F0, K, sigma)
    vol_std_error = estimate.std_error / vega if vega > 0.0 else float("inf")
    return McImpliedVol(sigma=sigma, vol_std_error=vol_std_error, estimate=estimate)
