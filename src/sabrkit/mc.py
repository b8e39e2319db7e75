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
from (base_seed, config_index, block_index) and its own slice of the
output. The blocks of one configuration run on up to one thread per usable
core; the results are bit-identical whatever the thread count. Each thread
reuses one array of n_steps * block_size float64 forward draws, about 49 MB
per thread at T = 30 years (1500 steps), and draws the vol factor's normals
16 steps at a time into a 557 KB chunk. A T = 30, 20k-path call on two
threads peaks at 133 MB of RSS, against 226 MB when both draw arrays were
held whole.

:func:`sabrkit.datagen.reference_smile` turns one simulation into a
reference vol and its standard error per strike.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, NonFinite
from .hagan import check_params
from .pricing import black_price, black_vega, implied_vol

__all__ = [
    "CV_VOL_MODES",
    "McConfig",
    "Terminals",
    "implied_vol_from_estimate",
    "price_from_terminals",
    "simulate_terminals",
]

CV_VOL_MODES = ("paper_alpha", "effective_atm")


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and control-variate mode.

    ``sigma_bar`` is derived from ``cv_vol_mode``: the initial vol alpha, or
    alpha*F0^(beta-1) which matches the at-the-money lognormal level and
    couples better when beta < 1 and F0 is far from 1. Every maturity gets
    at least ``min_steps`` steps, and paths are drawn in blocks of
    ``block_size``, each block from its own stream. The vol factor is
    always stepped in log space; ``sigma_scheme`` names that scheme in the
    record.
    """

    min_steps: ClassVar[int] = 10
    block_size: ClassVar[int] = 4096
    sigma_scheme: ClassVar[str] = "log_exact"

    paths: int = 100_000
    steps_per_year: int = 50
    cv_vol_mode: str = "paper_alpha"
    base_seed: int = 42

    def __post_init__(self) -> None:
        if self.paths < 1000:
            raise ConfigError(f"paths must be >= 1000, got {self.paths!r}")
        if self.steps_per_year < 1:
            raise ConfigError("steps_per_year must be >= 1")
        if self.cv_vol_mode not in CV_VOL_MODES:
            raise ConfigError(f"cv_vol_mode must be one of {CV_VOL_MODES}")

    def n_steps(self, T: float) -> int:
        return max(self.min_steps, math.ceil(self.steps_per_year * T))

    def sigma_bar(self, alpha: float, F0: float, beta: float) -> float:
        if self.cv_vol_mode == "paper_alpha":
            return alpha
        return alpha * F0 ** (beta - 1.0)

    def record(self) -> dict:
        """Every setting, the fixed ones included, as dataset manifests and
        evaluation reports store them."""
        return {**asdict(self), "sigma_scheme": self.sigma_scheme,
                "min_steps": self.min_steps, "block_size": self.block_size}


@dataclass(frozen=True)
class Terminals:
    """Paired terminal forwards of the SABR and control-variate processes."""

    T: float
    F0: float
    sigma_bar: float
    f_sabr: np.ndarray
    f_black: np.ndarray


# Path-steps each block thread must get, about 25 ms of work. Below that,
# starting a thread and waiting to take the GIL back from a thread that is
# stepping (a few ms when the cores are contended) cost more than the
# thread saves: on a 2-vCPU VM, 10-step calls at 20k paths ran up to 30%
# slower on two threads, while calls of 1M path-steps and more gained.
_MIN_THREAD_PATH_STEPS = 500_000

# Steps of vol factor draws a thread holds at once: (16 + 1) * 4096 float64
# is 557 KB, which stays in cache while a chunk's vol rows are built and
# stepped over.
_VOL_CHUNK_STEPS = 16


def usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(n_blocks: int, path_steps: int) -> int:
    """Threads for one call: one per usable core, block and share of work."""
    return max(1, min(usable_cores(), n_blocks, path_steps // _MIN_THREAD_PATH_STEPS))


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
    stepped in log space, which is exact in distribution for the lognormal
    vol. Parameters outside the SABR domain raise ConfigError from
    :func:`check_params`.

    The path blocks run on up to one thread per usable core and per block,
    each thread getting at least 500k path-steps (paths * steps), so a call
    of fewer than 1M path-steps runs on the calling thread alone. Thread i
    takes blocks i, i + threads, ...; the calling thread is thread 0, and
    the others belong to a pool that ends before the call returns. Each
    block draws from its own stream and writes its own slice of the
    output, so the result does not depend on the thread count. Each thread
    reuses one array of n_steps * block_size forward draws and one chunk of
    (_VOL_CHUNK_STEPS + 1) * block_size vols: the vol factor's normals
    follow the forward's in the block's stream and are drawn a chunk at a
    time, so the draws are the same as in one fill of both arrays.
    """
    check_params(T, F0, alpha, beta, rho, nu)
    n_steps = cfg.n_steps(T)
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    rho_perp = math.sqrt(1.0 - rho * rho)
    vol_drift = 0.5 * nu * nu * dt
    sigma_bar = cfg.sigma_bar(alpha, F0, beta)
    lognormal_forward = beta >= 1.0

    n_blocks = -(-cfg.paths // cfg.block_size)
    threads = _thread_count(n_blocks, cfg.paths * n_steps)
    max_width = min(cfg.block_size, cfg.paths)
    draws = np.empty((threads, n_steps * max_width))
    chunks = np.empty((threads, (_VOL_CHUNK_STEPS + 1) * max_width))
    scratch = np.empty((threads, max_width))
    f_sabr = np.empty(cfg.paths)
    f_black = np.empty(cfg.paths)

    def run_blocks(thread: int) -> None:
        for block_index in range(thread, n_blocks, threads):
            start = block_index * cfg.block_size
            stop = min(start + cfg.block_size, cfg.paths)
            width = stop - start
            seq = np.random.SeedSequence(cfg.base_seed, spawn_key=(config_index, block_index))
            rng = np.random.Generator(np.random.PCG64(seq))
            dw = draws[thread, : n_steps * width].reshape(n_steps, width)
            rng.standard_normal(out=dw)
            dw *= sqrt_dt
            chunk = chunks[thread, : (_VOL_CHUNK_STEPS + 1) * width].reshape(-1, width)
            chunk[0] = alpha
            t = scratch[thread, :width]

            f = f_sabr[start:stop]
            fb = f_black[start:stop]
            f.fill(F0)
            fb.fill(F0)
            for k0 in range(0, n_steps, _VOL_CHUNK_STEPS):
                steps = dw[k0 : k0 + _VOL_CHUNK_STEPS]
                c = len(steps)
                # The vol factor's normals follow the dw normals in the
                # block's stream; drawing them c steps at a time draws the
                # same numbers. Row j + 1 becomes the vol after step
                # k0 + j: the increment dz = rho dw + rho_perp dw_perp,
                # the factor exp(nu dz - nu^2 dt / 2), multiplied onto
                # row j, which holds alpha or the previous chunk's last
                # vol. The product runs row by row: np.multiply.accumulate
                # along the steps is about ten times slower.
                vol = chunk[1 : c + 1]
                rng.standard_normal(out=vol)
                vol *= sqrt_dt
                vol *= rho_perp
                for j in range(c):
                    np.multiply(steps[j], rho, out=t)
                    vol[j] += t
                vol *= nu
                vol -= vol_drift
                np.exp(vol, out=vol)
                for j in range(c):
                    chunk[j + 1] *= chunk[j]

                for j in range(c):
                    np.maximum(f, 0.0, out=t)
                    t **= beta  # ** keeps numpy's scalar-power paths (sqrt at 0.5, ...)
                    t *= chunk[j]
                    t *= steps[j]
                    f += t
                    if not lognormal_forward:
                        np.maximum(f, 0.0, out=f)
                    np.multiply(fb, sigma_bar, out=t)
                    t *= steps[j]
                    fb += t
                chunk[0] = chunk[c]

    if threads == 1:
        run_blocks(0)
    else:
        # The calling thread takes a share instead of waiting, which saves
        # starting one thread.
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            others = [pool.submit(run_blocks, i) for i in range(1, threads)]
            run_blocks(0)
            for future in others:
                future.result()

    return Terminals(T=T, F0=F0, sigma_bar=sigma_bar, f_sabr=f_sabr, f_black=f_black)


def price_from_terminals(terminals: Terminals, K: float) -> tuple[float, float]:
    """Control-variate call price for one strike from simulated terminals,
    and its standard error."""
    diffs = np.maximum(terminals.f_sabr - K, 0.0) - np.maximum(terminals.f_black - K, 0.0)
    if not np.all(np.isfinite(diffs)):
        raise NonFinite("non-finite payoff encountered")
    n = diffs.size
    anchor = black_price(terminals.T, terminals.F0, K, terminals.sigma_bar)
    price = float(diffs.mean()) + anchor
    std_error = float(diffs.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return price, std_error


def implied_vol_from_estimate(
    price: float, std_error: float, T: float, F0: float, K: float
) -> tuple[float, float]:
    """Invert a price estimate and propagate its standard error to vol units:
    returns (sigma, vol_std_error).

    Raises PriceOutOfBounds when the estimate landed outside the invertible
    interval; :func:`sabrkit.datagen.reference_smile` marks such strikes NaN.
    """
    sigma = implied_vol(price, T, F0, K)
    vega = black_vega(T, F0, K, sigma)
    return sigma, std_error / vega if vega > 0.0 else float("inf")
