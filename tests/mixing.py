"""The beta = 1 mixing price, a law-level oracle for the Monte Carlo engine.

At beta = 1, conditional on the vol path, the SABR forward is lognormal
(Hull & White 1987; Romano & Touzi 1997; Willard 1997): with
V = integral of sigma^2 dt, its forward is
F0*exp(rho*(sigma_T - alpha)/nu - rho^2*V/2) and its total variance
(1 - rho^2)*V. The call price is the mean of Black over vol paths. The vol
is stepped exactly in log space, as the engine steps it, and V is taken by
the trapezoid rule; nothing here shares code with the engine's forward.
"""

import math

import numpy as np
from scipy.special import ndtr


def mixing_prices(T, F0, alpha, rho, nu, strikes, pairs, steps_per_year=200, seed=0):
    """Call prices at ``strikes`` and their standard errors, each the mean
    of Black over ``pairs`` antithetic pairs of vol paths."""
    n_steps = max(10, math.ceil(steps_per_year * T))
    dt = T / n_steps
    rng = np.random.default_rng(seed)
    sigma = np.full((2, pairs), alpha)  # row 1 is row 0's antithetic path
    v = 0.5 * sigma * sigma
    for _ in range(n_steps):
        dz = rng.standard_normal(pairs) * (nu * math.sqrt(dt))
        sigma *= np.exp(np.stack((dz, -dz)) - 0.5 * nu * nu * dt)
        v += sigma * sigma
    v = (v - 0.5 * sigma * sigma) * dt
    fwd = F0 * np.exp(rho * (sigma - alpha) / nu - 0.5 * rho * rho * v)
    sd = np.sqrt((1.0 - rho * rho) * v)
    k = np.asarray(strikes, dtype=float)[:, None, None]
    d1 = (np.log(fwd / k) + 0.5 * sd * sd) / sd
    per_pair = (fwd * ndtr(d1) - k * ndtr(d1 - sd)).mean(axis=1)
    return per_pair.mean(axis=1), per_pair.std(axis=1, ddof=1) / math.sqrt(pairs)
