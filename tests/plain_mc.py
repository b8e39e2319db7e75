"""Plain Monte Carlo pricing, an oracle for the control-variate tests.

The engine prices with its control variate only; the tests compare that
estimator against the plain payoff average over the same terminals. The
module also holds the one-call reference vol the tests price single points
with.
"""

import math

import numpy as np

from sabrkit.errors import NonFinite
from sabrkit.hagan import SabrPoint
from sabrkit.mc import McConfig, McImpliedVol, PriceEstimate, Terminals, cv_price, implied_vol_from_estimate


def plain_price_from_terminals(terminals: Terminals, K: float) -> PriceEstimate:
    """Plain Monte Carlo call price, no variance reduction."""
    payoff = np.maximum(terminals.f_sabr - K, 0.0)
    if not np.all(np.isfinite(payoff)):
        raise NonFinite("non-finite payoff encountered")
    n = payoff.size
    std_error = float(payoff.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return PriceEstimate(price=float(payoff.mean()), std_error=std_error, paths_used=n)


def mc_implied_vol(p: SabrPoint, cfg: McConfig, config_index: int = 0) -> McImpliedVol:
    """Reference implied vol for one configuration via the CV estimator."""
    return implied_vol_from_estimate(cv_price(p, cfg, config_index), p.T, p.F0, p.K)
