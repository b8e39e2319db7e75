"""Poincare half-plane coordinates, an oracle for the geometry tests.

The features never leave the flattened (q, sigma) coordinates; the tests
rotate them into the half-plane to check distances against arccosh.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HalfPlanePoint:
    """Poincare upper half-plane coordinates (u, v), v > 0."""

    u: float
    v: float


def to_halfplane(q: float, sigma: float, rho: float) -> HalfPlanePoint:
    """Rotate flattened coordinates (q, sigma) into half-plane coordinates."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return HalfPlanePoint(u=(q - rho * sigma) / math.sqrt(1.0 - rho * rho), v=sigma)


def sigma_min(alpha: float, rho: float, q: float) -> float:
    """The terminal vol minimizing the hyperbolic action from (0, alpha)
    to the strike manifold at flattened strike q."""
    return math.sqrt(alpha * alpha + 2.0 * rho * alpha * q + q * q)


def geodesic_distance(alpha: float, rho: float, q: float) -> float:
    """The signed geodesic distance from (0, alpha) to the strike manifold
    at flattened strike q, ln((sigma_min + rho*alpha + q) / ((1+rho)*alpha)),
    written out here rather than taken from ``geometry``, which computes it
    as Hagan's x(q/alpha) at -rho."""
    smin = sigma_min(alpha, rho, q)
    return math.log((smin + rho * alpha + q) / ((1.0 + rho) * alpha))
