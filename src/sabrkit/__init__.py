"""SABR implied volatility toolkit.

Analytic smile formulas, a variance-reduced Monte Carlo reference engine,
the hyperbolic-geometry feature quadruple ``features``, dataset generation,
and from-scratch residual neural correctors with an evaluation harness.
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
from .geometry import GeomFeatures, features
from .hagan import SabrPoint, check_params, hagan_vol, zx_ratio
from .mc import McConfig, Terminals, simulate_terminals
from .pricing import black_price, black_vega, implied_vol, norm_cdf, norm_pdf

__version__ = "0.1.0"
