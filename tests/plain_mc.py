"""Plain Monte Carlo pricing, an oracle for the control-variate tests.

The engine prices with its control variate only; the tests compare that
estimator against the plain payoff average over the same terminals.
"""

import math

import numpy as np

from sabrkit.errors import NonFinite
from sabrkit.mc import PriceEstimate, Terminals


def plain_price_from_terminals(terminals: Terminals, K: float) -> PriceEstimate:
    """Plain Monte Carlo call price, no variance reduction."""
    payoff = np.maximum(terminals.f_sabr - K, 0.0)
    if not np.all(np.isfinite(payoff)):
        raise NonFinite("non-finite payoff encountered")
    n = payoff.size
    std_error = float(payoff.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return PriceEstimate(price=float(payoff.mean()), std_error=std_error, paths_used=n)
