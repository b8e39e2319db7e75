"""SABR implied volatility toolkit.

Analytic smile formulas, a variance-reduced Monte Carlo reference engine,
hyperbolic-geometry smile features, dataset generation, and from-scratch
residual neural correctors with an evaluation harness.
"""

from . import datagen, evaluation, net
from .errors import (
    ConfigError,
    DegenerateReference,
    Diverged,
    DomainError,
    EmptyRegion,
    NegativeVol,
    NoConvergence,
    NonFinite,
    PriceOutOfBounds,
    SabrkitError,
    ShapeMismatch,
)
from .geometry import GeomFeatures, features, q_transform, sigma_min
from .hagan import SabrPoint, check_params, hagan_atm, hagan_vol, zx_ratio
from .mc import McConfig, McImpliedVol, PriceEstimate, Terminals, cv_price, simulate_terminals
from .pricing import black_price, black_vega, implied_vol, norm_cdf, norm_pdf

__version__ = "0.1.0"
