"""The array forms of the smile and the feature quadruple against the
scalar forms, which are their reference: equal bit for bit on every point,
and the same exception class when a point leaves the formulas' domain."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabrkit.datagen import GRID_INDICES, sample_config, strike_grid
from sabrkit.errors import DomainError, NegativeVol, SabrkitError
from sabrkit.geometry import features, features_array
from sabrkit.hagan import ATM_LOG_THRESHOLD, SabrPoint, hagan_vol, hagan_vols

# Points outside the formulas' domain; the scalar calls raise on them.
NEGATIVE_ATM = SabrPoint(T=2.0, F0=1.0, K=1.0, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
NEGATIVE_WING = SabrPoint(T=2.0, F0=1.0, K=1.05, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
# A vanishing alpha far from the money: the geodesic log argument cancels to 0.
ZERO_GEODESIC = SabrPoint(T=1.0, F0=1.0, K=0.5, alpha=1e-300, beta=0.0, rho=0.0, nu=0.0)

# Either side of the ATM dispatch and of the z/x(z) series switch.
SIDES = (1.0 - 1e-3, 1.0 + 1e-3)


def columns(points):
    return np.array([(p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu) for p in points]).T


def quadruple(p):
    f = features(p)
    return (f.q, f.sigma_min, f.d_h, f.sigma0)


@st.composite
def generator_points(draw):
    """A configuration from the dataset generator, at a grid strike or at an
    edge: beta at 0 or 1, K == F0, |ln(F0/K)| or |z| beside its switch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, F0, alpha, beta, rho, nu = sample_config(rng)
    beta = draw(st.sampled_from((beta, beta, 0.0, 1.0, 1.0 - 1e-10)))
    edge = draw(st.sampled_from(("grid", "atm", "log", "z")))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    side = draw(st.sampled_from(SIDES))
    if edge == "grid":
        K = float(strike_grid(F0, alpha, T)[draw(st.integers(0, len(GRID_INDICES) - 1))])
    elif edge == "atm":
        K = F0
    elif edge == "log":
        K = F0 * math.exp(sign * side * ATM_LOG_THRESHOLD)
    else:
        # z ~ nu/alpha * F0^(1-beta) * ln(F0/K) near the money.
        K = F0 * math.exp(-sign * side * 1e-6 * alpha / (nu * F0 ** (1.0 - beta)))
    return SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)


@settings(max_examples=150, deadline=None)
@given(st.lists(generator_points(), min_size=1, max_size=24))
def test_hagan_vols_equal_scalar(points):
    scalar = np.array([hagan_vol(p) for p in points])
    assert np.array_equal(hagan_vols(*columns(points)), scalar)


@settings(max_examples=150, deadline=None)
@given(st.lists(generator_points(), min_size=1, max_size=24))
def test_features_array_equal_scalar(points):
    scalar = np.array([quadruple(p) for p in points])
    assert np.array_equal(features_array(*columns(points)), scalar)


def test_edges_take_both_branches():
    # The edge points above really sit on both sides of each switch.
    F0, alpha, nu = 0.03, 0.02, 0.3
    for side in SIDES:
        p = SabrPoint(T=1.0, F0=F0, K=F0 * math.exp(side * ATM_LOG_THRESHOLD),
                      alpha=alpha, beta=1.0, rho=-0.3, nu=nu)
        assert (abs(math.log(F0 / p.K)) < ATM_LOG_THRESHOLD) == (side < 1.0)
        K = F0 * math.exp(-side * 1e-6 * alpha / nu)
        z = nu / alpha * math.log(F0 / K)
        assert (abs(z) < 1e-6) == (side < 1.0)


def first_failure(fn, points):
    for p in points:
        try:
            fn(p)
        except SabrkitError as exc:
            return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(generator_points(), min_size=0, max_size=12),
       st.sampled_from((NEGATIVE_ATM, NEGATIVE_WING, ZERO_GEODESIC)),
       st.integers(0, 12))
def test_out_of_domain_point_raises_as_scalar(points, bad, at):
    points = points[:at] + [bad] + points[at:]
    cols = columns(points)
    for scalar, array in ((hagan_vol, hagan_vols), (features, features_array)):
        expected = first_failure(scalar, points)
        if expected is None:
            array(*cols)
        else:
            with pytest.raises(expected):
                array(*cols)


def test_failing_points_fail_in_scalar_form():
    with pytest.raises(NegativeVol):
        hagan_vol(NEGATIVE_ATM)
    with pytest.raises(NegativeVol):
        hagan_vol(NEGATIVE_WING)
    with pytest.raises(DomainError):
        features(ZERO_GEODESIC)


def test_vanishing_alpha_overflows_silently():
    # z ~ 1e290 beside the money, so z*z overflows to inf as in the scalar form.
    near = [SabrPoint(T=1.0, F0=1.0, K=K, alpha=1e-300, beta=0.5, rho=0.0, nu=0.1)
            for K in (1.0, math.exp(5e-9))]
    off = SabrPoint(T=1.0, F0=1.0, K=0.9, alpha=1e-300, beta=0.5, rho=0.0, nu=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(hagan_vols(*columns(near)), [hagan_vol(p) for p in near])
        for fn in (hagan_vol, lambda p: hagan_vols(*columns([p]))):
            with pytest.raises(NegativeVol):
                fn(off)
