"""Plain Monte Carlo pricing, an oracle for the control-variate tests.

The engine prices with its control variate only; the tests compare that
estimator against the plain payoff average over the same terminals. The
module also holds the one-call price and reference vol the tests price
single points with, and the serial per-step simulation that the threaded
block simulation must reproduce bit for bit.
"""

import math

import numpy as np

from sabrkit.errors import NonFinite
from sabrkit.hagan import SabrPoint, check_params
from sabrkit.mc import (
    McConfig,
    Terminals,
    implied_vol_from_estimate,
    price_from_terminals,
    simulate_terminals,
)


def plain_price_from_terminals(terminals: Terminals, K: float) -> tuple[float, float]:
    """Plain Monte Carlo call price and its standard error, no variance
    reduction."""
    payoff = np.maximum(terminals.f_sabr - K, 0.0)
    if not np.all(np.isfinite(payoff)):
        raise NonFinite("non-finite payoff encountered")
    n = payoff.size
    std_error = float(payoff.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(payoff.mean()), std_error


def cv_price(p: SabrPoint, cfg: McConfig, config_index: int = 0) -> tuple[float, float]:
    """Simulate and price one configuration at its own strike:
    (price, std_error)."""
    terminals = simulate_terminals(p.T, p.F0, p.alpha, p.beta, p.rho, p.nu, cfg, config_index)
    return price_from_terminals(terminals, p.K)


def mc_implied_vol(p: SabrPoint, cfg: McConfig, config_index: int = 0) -> tuple[float, float]:
    """Reference implied vol for one configuration via the CV estimator:
    (sigma, vol_std_error)."""
    return implied_vol_from_estimate(*cv_price(p, cfg, config_index), p.T, p.F0, p.K)


def serial_terminals(
    T: float,
    F0: float,
    alpha: float,
    beta: float,
    rho: float,
    nu: float,
    cfg: McConfig,
    config_index: int = 0,
) -> Terminals:
    """The blocks one after another, each stepped one time step at a time."""
    check_params(T, F0, alpha, beta, rho, nu)
    n_steps = cfg.n_steps(T)
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    rho_perp = math.sqrt(1.0 - rho * rho)
    sigma_bar = cfg.sigma_bar(alpha, F0, beta)
    lognormal_forward = beta >= 1.0

    f_sabr = np.empty(cfg.paths)
    f_black = np.empty(cfg.paths)
    done = 0
    block_index = 0
    while done < cfg.paths:
        width = min(cfg.block_size, cfg.paths - done)
        seq = np.random.SeedSequence(cfg.base_seed, spawn_key=(config_index, block_index))
        rng = np.random.Generator(np.random.PCG64(seq))
        # Chunk by chunk, the dw normals and then the vol factor's.
        dw = np.empty((n_steps, width))
        dw_perp = np.empty((n_steps, width))
        for k0 in range(0, n_steps, cfg.chunk_steps):
            rows = slice(k0, min(k0 + cfg.chunk_steps, n_steps))
            dw[rows] = rng.standard_normal(dw[rows].shape) * sqrt_dt
            dw_perp[rows] = rng.standard_normal(dw_perp[rows].shape) * sqrt_dt

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
            sigma *= np.exp(nu * dz_k - 0.5 * nu * nu * dt)
        f_sabr[done : done + width] = f
        f_black[done : done + width] = fb
        done += width
        block_index += 1

    return Terminals(T=T, F0=F0, sigma_bar=sigma_bar, f_sabr=f_sabr, f_black=f_black)
