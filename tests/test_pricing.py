import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sabrkit.errors import PriceOutOfBounds
from sabrkit.pricing import (
    black_price,
    black_vega,
    implied_vol,
    norm_cdf,
    norm_pdf,
)

# Frozen from high-resolution quadrature of the Gaussian density.
PHI_01 = 0.539827837277029
# Frozen from quadrature of the call payoff against the exact lognormal density.
BLACK_1_1_1_02 = 0.07965567455405804


def invertible_at_target_accuracy(price, T, F0, K, sigma, rel_tol=1e-8):
    """Whether float64 prices can resolve sigma to rel_tol at all.

    A vol perturbation of rel_tol*sigma moves the price by about
    vega*rel_tol*sigma; when that is below a few ulps of the price, the
    forward map has destroyed the information and no inversion algorithm
    can recover sigma to the target, so such draws are outside the
    solver's contract.
    """
    intrinsic = max(F0 - K, 0.0)
    if not (intrinsic + 1e-300 < price < F0) or price < 5e-300:
        return False
    vega = black_vega(T, F0, K, sigma)
    return vega * rel_tol * sigma > 10.0 * np.spacing(price)


def bisect_implied_vol(price, T, F0, K, iters=80):
    """Independent pure-bisection inverse used as the solver oracle."""
    lo, hi = 1e-8, 5.0
    while black_price(T, F0, K, hi) < price:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if black_price(T, F0, K, mid) > price:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestNormCdf:
    def test_zero_is_half(self):
        assert norm_cdf(0.0) == 0.5

    def test_value_at_tenth_vs_quadrature(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        integral, err = quad(density, 0.0, 0.1, epsabs=1e-15)
        assert err < 1e-13
        assert norm_cdf(0.1) == pytest.approx(0.5 + integral, abs=1e-12)
        assert norm_cdf(0.1) == pytest.approx(PHI_01, abs=1e-12)

    def test_deep_left_tail(self):
        # Complementary error integral gives 6.2209605742718e-16 at -8.
        v = norm_cdf(-8.0)
        assert 0.0 <= v < 1e-14
        assert v == pytest.approx(6.2209605742717841e-16, rel=1e-10)

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_symmetry(self, x):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        vals = [norm_cdf(float(x)) for x in np.linspace(-10, 10, 4001)]
        assert np.all(np.diff(vals) >= 0.0)


class TestBlackPrice:
    def test_atm_value_vs_lognormal_quadrature(self):
        T, F0, K, sigma = 1.0, 1.0, 1.0, 0.2

        def integrand(w):
            ft = F0 * math.exp(sigma * w - 0.5 * sigma * sigma * T)
            return max(ft - K, 0.0) * math.exp(-w * w / (2 * T)) / math.sqrt(2 * math.pi * T)

        oracle, _ = quad(integrand, -12, 12, limit=400, epsabs=1e-13)
        price = black_price(T, F0, K, sigma)
        assert price == pytest.approx(oracle, abs=5e-9)
        assert price == pytest.approx(BLACK_1_1_1_02, abs=1e-12)

    @pytest.mark.parametrize("F0,K", [(1.0, 0.7), (1.0, 1.3), (0.02, 0.025), (2.0, 1.0)])
    def test_zero_vol_is_intrinsic(self, F0, K):
        assert black_price(1.0, F0, K, 0.0) == max(F0 - K, 0.0)

    def test_tiny_strike_is_forward(self):
        assert black_price(1.0, 1.0, 1e-12, 0.2) == pytest.approx(1.0, rel=1e-9)

    @given(
        st.floats(min_value=0.02, max_value=5.0),
        st.floats(min_value=0.005, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def test_bounds(self, T, F0, moneyness, sigma):
        K = F0 * moneyness
        price = black_price(T, F0, K, sigma)
        assert max(F0 - K, 0.0) - 1e-15 <= price <= F0 * (1 + 1e-15)

    def test_monotone_in_sigma(self):
        # Deep ITM at tiny vol the extrinsic value underflows and the float
        # price sits exactly on intrinsic, so strictness applies only once
        # the price is distinguishable from the intrinsic floor.
        sigmas = np.linspace(0.01, 2.0, 500)
        for K in (0.6, 1.0, 1.7):
            intrinsic = max(1.0 - K, 0.0)
            prices = np.array([black_price(1.0, 1.0, K, s) for s in sigmas])
            assert np.all(np.diff(prices) >= 0.0)
            live = prices > intrinsic
            assert np.all(np.diff(prices[live]) > 0.0)
            assert live.sum() > 450

    def test_convex_in_strike(self):
        ks = np.linspace(0.4, 2.5, 300)
        prices = np.array([black_price(1.0, 1.0, k, 0.3) for k in ks])
        second = np.diff(prices, 2)
        assert np.all(second >= -1e-12)

    @pytest.mark.parametrize("bad", [dict(T=0.0), dict(T=-1.0), dict(F0=0.0),
                                     dict(K=-2.0), dict(T=float("nan")),
                                     dict(sigma=-0.1)])
    def test_rejects_bad_inputs(self, bad):
        kwargs = dict(T=1.0, F0=1.0, K=1.0, sigma=0.2)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            black_price(**kwargs)


class TestImpliedVol:
    def test_round_trip_atm(self):
        price = black_price(1.0, 1.0, 1.0, 0.2)
        assert implied_vol(price, 1.0, 1.0, 1.0) == pytest.approx(0.2, abs=1e-10)

    def test_vs_bisection_oracle(self):
        vol = implied_vol(0.0796557, 1.0, 1.0, 1.0)
        assert vol == pytest.approx(bisect_implied_vol(0.0796557, 1.0, 1.0, 1.0), abs=1e-6)
        assert vol == pytest.approx(0.2, abs=1e-6)

    def test_below_intrinsic_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            implied_vol(0.0, 1.0, 1.0, 0.9)
        with pytest.raises(PriceOutOfBounds):
            implied_vol(0.05, 1.0, 1.0, 0.9)

    def test_at_or_above_forward_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            implied_vol(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(PriceOutOfBounds):
            implied_vol(1.5, 1.0, 1.0, 1.0)

    def test_round_trip_random_configurations(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        skipped = 0
        while checked < 1000:
            T = rng.uniform(0.02, 5.0)
            F0 = rng.uniform(0.005, 2.0)
            K = F0 * rng.uniform(0.5, 2.0)
            sigma = rng.uniform(0.01, 1.5)
            price = black_price(T, F0, K, sigma)
            if not invertible_at_target_accuracy(price, T, F0, K, sigma):
                skipped += 1
                continue
            recovered = implied_vol(price, T, F0, K)
            assert abs(recovered - sigma) <= 1e-8 * sigma, (T, F0, K, sigma)
            checked += 1
        assert skipped < 0.10 * checked

    def test_deep_tail_recovery(self):
        # Tiny extrinsic value but still resolvable in float64.
        T, F0, K, sigma = 1.67, 0.9, 1.5, 0.0137 * (1.5 / 0.9)
        price = black_price(T, F0, K, sigma)
        assert 0 < price < 1e-60
        assert implied_vol(price, T, F0, K) == pytest.approx(sigma, rel=1e-9)

    def test_high_vol_bracket_expansion(self):
        price = black_price(0.5, 1.0, 1.0, 7.5)
        assert implied_vol(price, 0.5, 1.0, 1.0) == pytest.approx(7.5, rel=1e-9)

    def test_vega_positive_and_matches_finite_difference(self):
        h = 1e-6
        for K in (0.7, 1.0, 1.6):
            vega = black_vega(1.0, 1.0, K, 0.25)
            fd = (black_price(1.0, 1.0, K, 0.25 + h) - black_price(1.0, 1.0, K, 0.25 - h)) / (2 * h)
            assert vega > 0.0
            assert vega == pytest.approx(fd, rel=1e-6)

    def test_norm_pdf_consistent_with_cdf_derivative(self):
        h = 1e-6
        for x in (-2.0, 0.0, 1.3):
            fd = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
            assert norm_pdf(x) == pytest.approx(fd, rel=1e-8)
