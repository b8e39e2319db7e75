"""Poincare half-plane coordinates, an oracle for the geometry tests.

The features never leave the flattened (q, sigma) coordinates; the tests
rotate them into the half-plane to check distances against arccosh.
"""

import math
from dataclasses import dataclass

from sabrkit.geometry import _distance, sigma_min


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


def geodesic_distance(alpha: float, rho: float, q: float) -> float:
    """The signed geodesic distance ``features`` computes, from (0, alpha)
    to the strike manifold at flattened strike q."""
    return _distance(alpha, rho, q, sigma_min(alpha, rho, q))
