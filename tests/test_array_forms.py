"""The array forms of the smile and the feature quadruple against the
scalar forms, which are their reference. Point by point, an array form is
NaN exactly where its scalar form raises DomainError, with neither an
exception nor a warning, and within 1e-12 relative of it elsewhere (numpy's
ufuncs and the C library differ by about an ulp). A served batch fails as a
whole: predict_vols raises DomainError naming the first point that fails,
and predict_vol raises it at that point alone."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sabrkit.datagen import GRID_INDICES, sample_config, strike_grid
from sabrkit.errors import DomainError
from sabrkit.geometry import features, features_array
from sabrkit.hagan import SabrPoint, hagan_vol, hagan_vols
from sabrkit.net import init_bundle, predict_vol, predict_vols

from bundles import zero_output

GOOD = SabrPoint(T=1.0, F0=1.0, K=1.1, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)

# Points outside the formulas' domain; the scalar calls raise DomainError on
# them.
NEGATIVE_ATM = SabrPoint(T=2.0, F0=1.0, K=1.0, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
NEGATIVE_WING = SabrPoint(T=2.0, F0=1.0, K=1.05, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
# A vanishing alpha far from the money: zeta = q/alpha is so large that
# zeta^2 overflows inside x(zeta), and z/x(z) comes out 0.
ZERO_GEODESIC = SabrPoint(T=1.0, F0=1.0, K=0.5, alpha=1e-300, beta=0.0, rho=0.0, nu=0.0)
OUT_OF_DOMAIN = (NEGATIVE_ATM, NEGATIVE_WING, ZERO_GEODESIC)

# F0^(2(1-b)) underflows to 0 in the ATM bracket, which divides by zero.
UNDERFLOWING_ATM = SabrPoint(T=1.0, F0=1e-170, K=1e-170, alpha=0.2, beta=0.0, rho=-0.8, nu=1.2)
# z = -4.6e23, where (sqrt(1-2*rho*z+z^2)+z-rho)/(1-rho), the textbook x(z)
# log's argument, cancels to -3; the closed form's cancellation-free x(z)
# prices the point at 0.028712740247078213, as the transcription in
# test_hagan.py does.
CANCELLED_LOG = SabrPoint(T=1.0, F0=1e22, K=2.5e22, alpha=0.05, beta=0.0, rho=0.75, nu=1.6)

# q^2 overflows in sigma_min, so features fail.
HUGE_FORWARD = SabrPoint(T=1.0, F0=1e300, K=2e300, alpha=0.2, beta=0.0, rho=-0.3, nu=0.4)
# alpha/F0^(1-beta) overflows at the money, so features fail.
OVERFLOWING_ATM = SabrPoint(T=1.0, F0=1e-310, K=1e-310, alpha=0.2, beta=0.0, rho=-0.8, nu=1.2)

# F0/K, then K/F0, underflows to 0, whose log fails.
F0_OVER_K_UNDERFLOWS = SabrPoint(T=1.0, F0=1e-200, K=1e200, alpha=0.2, beta=0.5, rho=-0.2, nu=0.3)
K_OVER_F0_UNDERFLOWS = SabrPoint(T=1.0, F0=1e200, K=1e-200, alpha=0.2, beta=0.5, rho=-0.2, nu=0.3)

# The bracket's alpha^2 / (F0*K)^(1-b) term overflows the smile to inf at
# tiny forwards, at and off the money; smaller still, F0*K underflows to 0
# and the bracket divides by zero.
INFINITE_ATM = SabrPoint(T=1.0, F0=1e-158, K=1e-158, alpha=0.2, beta=0.0, rho=-0.8, nu=1.2)
INFINITE_WING = SabrPoint(T=1.0, F0=1e-150, K=2e-150, alpha=0.2, beta=0.0, rho=-0.8, nu=1.2)
UNDERFLOWING_PRODUCT = SabrPoint(T=1.0, F0=1e-310, K=1e-310, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)

# Either side of |ln(F0/K)| = 1e-8 and of |z| = 1e-6: near-money points,
# where a log of the textbook x(z) argument would lose ~1e-16/|z|.
SIDES = (1.0 - 1e-3, 1.0 + 1e-3)


def columns(points):
    return np.array([(p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu) for p in points]).T


def quadruple(p):
    f = features(p)
    return (f.q, f.sigma_min, f.d_h, f.sigma0)


@st.composite
def generator_points(draw):
    """A configuration from the dataset generator, at a grid strike or at an
    edge: beta at 0, at 1 or just below 1, K == F0, |ln(F0/K)| beside 1e-8
    or |z| beside 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, F0, alpha, beta, rho, nu = sample_config(rng)
    beta = draw(st.sampled_from((beta, beta, 0.0, 1.0, 1.0 - 1e-8, 1.0 - 1e-10)))
    edge = draw(st.sampled_from(("grid", "atm", "log", "z")))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    side = draw(st.sampled_from(SIDES))
    if edge == "grid":
        K = float(strike_grid(F0, alpha, T)[draw(st.integers(0, len(GRID_INDICES) - 1))])
    elif edge == "atm":
        K = F0
    elif edge == "log":
        K = F0 * math.exp(sign * side * 1e-8)  # the former switch
    else:
        # z ~ nu/alpha * F0^(1-beta) * ln(F0/K) near the money.
        K = F0 * math.exp(-sign * side * 1e-6 * alpha / (nu * F0 ** (1.0 - beta)))
    return SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)


# Generator points with out-of-domain points anywhere among them, one in
# four on average.
GENERATOR_BATCHES = st.lists(
    st.one_of(generator_points(), generator_points(), generator_points(),
              st.sampled_from(OUT_OF_DOMAIN)),
    min_size=1, max_size=24)


def assert_nan_where_scalar_raises(scalar, array, points):
    """At every point, the array form's row is NaN where the scalar form
    raises DomainError, and finite within 1e-12 times each |scalar value|
    elsewhere; the array form itself neither raises nor warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = array(*columns(points)).reshape(len(points), -1)
    for i, (p, row) in enumerate(zip(points, got)):
        try:
            want = np.atleast_1d(scalar(p))
        except DomainError:
            assert np.isnan(row).all(), (scalar.__name__, i, row)
        else:
            assert np.isfinite(row).all(), (scalar.__name__, i, row)
            assert np.all(np.abs(row - want) <= 1e-12 * np.abs(want)), (scalar.__name__, i)


@settings(max_examples=150, deadline=None)
@given(GENERATOR_BATCHES)
def test_hagan_vols_equal_scalar(points):
    assert_nan_where_scalar_raises(hagan_vol, hagan_vols, points)


@settings(max_examples=150, deadline=None)
@given(GENERATOR_BATCHES)
def test_features_array_equal_scalar(points):
    assert_nan_where_scalar_raises(quadruple, features_array, points)


@st.composite
def log_uniform_points(draw):
    """A valid point whose F0 is log-uniform on 1e-320 to 1e300, from
    subnormal forwards, where F0*K and the maturity bracket leave the
    finite band, to forwards near overflow; K is F0 or within a factor e.
    alpha is uniform on [1e-3, 1] or log-uniform down to 1e-300, where z*z
    overflows inside x(z) and z/x(z) comes out 0."""
    F0 = 10.0 ** draw(st.floats(-320.0, 300.0))
    K = draw(st.sampled_from((F0, F0 * math.exp(draw(st.floats(-1.0, 1.0))))))
    beta = draw(st.sampled_from((0.0, 1.0, draw(st.floats(0.0, 1.0)))))
    alpha = draw(st.sampled_from((draw(st.floats(1e-3, 1.0)), 10.0 ** draw(st.floats(-300.0, 0.0)))))
    return SabrPoint(T=draw(st.floats(0.01, 10.0)), F0=F0, K=K, alpha=alpha, beta=beta,
                     rho=draw(st.floats(-0.95, 0.95)), nu=draw(st.floats(0.0, 2.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(log_uniform_points(), min_size=1, max_size=6))
@example([CANCELLED_LOG])
@example([UNDERFLOWING_ATM, CANCELLED_LOG])
@example([HUGE_FORWARD, OVERFLOWING_ATM])
@example([F0_OVER_K_UNDERFLOWS, K_OVER_F0_UNDERFLOWS])
@example([GOOD, INFINITE_ATM, GOOD, INFINITE_WING, UNDERFLOWING_PRODUCT, GOOD])
def test_forms_agree_at_every_magnitude(points):
    # Neither form fails on a point the other prices, at any magnitude,
    # and a failing point leaves the points after it as they are.
    for scalar, array in ((hagan_vol, hagan_vols), (quadruple, features_array)):
        assert_nan_where_scalar_raises(scalar, array, points)


@settings(max_examples=300, deadline=None)
@given(log_uniform_points())
def test_features_are_finite_or_raise(p):
    # An inf or NaN feature, as where q^2 overflows at huge forwards,
    # raises DomainError; no quadruple holds a non-finite value.
    try:
        got = quadruple(p)
    except DomainError:
        return
    assert all(map(math.isfinite, got))


def test_log_edges_sit_on_both_sides():
    # The "log" edge points above really sit on both sides of
    # |ln(F0/K)| = 1e-8.
    F0, alpha, nu = 0.03, 0.02, 0.3
    for side in SIDES:
        p = SabrPoint(T=1.0, F0=F0, K=F0 * math.exp(side * 1e-8),
                      alpha=alpha, beta=1.0, rho=-0.3, nu=nu)
        assert (abs(math.log(F0 / p.K)) < 1e-8) == (side < 1.0)


# Each failing point above with the scalar form that fails on it.
FAILING = (
    (hagan_vol, NEGATIVE_ATM),
    (hagan_vol, NEGATIVE_WING),
    (features, ZERO_GEODESIC),
    (hagan_vol, UNDERFLOWING_ATM),
    (features, HUGE_FORWARD),
    (features, OVERFLOWING_ATM),
    (hagan_vol, F0_OVER_K_UNDERFLOWS),
    (features, F0_OVER_K_UNDERFLOWS),
    (hagan_vol, K_OVER_F0_UNDERFLOWS),
    (features, K_OVER_F0_UNDERFLOWS),
    (hagan_vol, INFINITE_ATM),
    (hagan_vol, INFINITE_WING),
    (hagan_vol, UNDERFLOWING_PRODUCT),
)


def test_failing_points_fail_in_scalar_form():
    # Whatever step leaves the finite band, a negative bracket, an overflow,
    # a division by zero or the log of an underflowed ratio, the scalar
    # form raises one class, with its part's name.
    for fn, p in FAILING:
        part = "closed form" if fn is hagan_vol else "feature quadruple"
        with pytest.raises(DomainError, match=f"^{part} fails: "):
            fn(p)


def test_vanishing_alpha_overflows_silently():
    # z ~ 1e290 beside the money, so z*z overflows to inf as in the scalar
    # form and z/x(z) comes out 0: the scalar form raises DomainError and
    # the array form gives NaN, as far from the money. At the money z = 0
    # and the vol stays finite, the same bits in both forms.
    atm = SabrPoint(T=1.0, F0=1.0, K=1.0, alpha=1e-300, beta=0.5, rho=0.0, nu=0.1)
    near, off = (SabrPoint(T=1.0, F0=1.0, K=K, alpha=1e-300, beta=0.5, rho=0.0, nu=0.1)
                 for K in (math.exp(5e-9), 0.9))
    for p in (near, off):
        with pytest.raises(DomainError, match="^closed form fails: vol 0.0$"):
            hagan_vol(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hagan_vols(*columns([atm, near, off]))
    assert math.isfinite(hagan_vol(atm)) and got[0] == hagan_vol(atm)
    assert np.isnan(got[1:]).all()


@pytest.mark.parametrize("fn, p", FAILING,
                         ids=[f"{fn.__name__}-F0={p.F0:g}-K={p.K:g}" for fn, p in FAILING])
def test_point_and_batch_fail_alike(fn, p):
    # Every arch that reads the failing part, the closed form on the
    # residual archs and the features on the geometry archs, raises
    # DomainError for the point alone and for a batch of it.
    archs = ("resnn", "georesnn") if fn is hagan_vol else ("geonn", "georesnn")
    for arch in archs:
        bundle = zero_output(init_bundle(arch, seed=0))
        with pytest.raises(DomainError):
            predict_vol(bundle, p)
        with pytest.raises(DomainError, match=" fails at point 0$"):
            predict_vols(bundle, [p])


@pytest.mark.parametrize("arch, bad, part", [
    ("resnn", NEGATIVE_ATM, "closed form"),
    ("geonn", ZERO_GEODESIC, "feature quadruple"),
    ("georesnn", NEGATIVE_ATM, "closed form"),
    ("georesnn", ZERO_GEODESIC, "feature quadruple"),
])
def test_served_batch_raises_domain_error_at_first_failing_point(arch, bad, part):
    # The residual archs fail on the closed form, the geometry archs on the
    # features; ndn reads neither and serves the same batch.
    batch = [GOOD, bad, GOOD, bad]
    with pytest.raises(DomainError, match=f"^{part} fails at point 1$"):
        predict_vols(zero_output(init_bundle(arch, seed=0)), batch)
    assert np.isfinite(predict_vols(init_bundle("ndn", seed=0), batch)).all()
