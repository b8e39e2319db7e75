import math

import numpy as np
import pytest
from scipy.integrate import quad

from sabrkit.geometry import (
    features,
    geodesic_distance,
    q_transform,
    sigma0_leading,
    sigma_min,
)
from sabrkit.hagan import SabrPoint

from halfplane import to_halfplane


def hyp_dist(u1, v1, u2, v2):
    """Half-plane distance arccosh(1 + ((du)^2 + (dv)^2) / (2 v1 v2))."""
    return math.acosh(1.0 + ((u2 - u1) ** 2 + (v2 - v1) ** 2) / (2.0 * v1 * v2))


def oracle_distance(alpha, rho, q, sigma):
    """Distance from the spot point (q=0, sigma=alpha) to (q, sigma)."""
    p1 = to_halfplane(0.0, alpha, rho)
    p2 = to_halfplane(q, sigma, rho)
    return hyp_dist(p1.u, p1.v, p2.u, p2.v)


class TestQTransform:
    def test_atm_is_zero(self):
        assert q_transform(1.3, 1.3, 0.42) == 0.0

    def test_power_branch_vs_quadrature(self):
        val = q_transform(1.0, 1.21, 0.5)
        oracle, _ = quad(lambda f: f**-0.5, 1.0, 1.21, epsabs=1e-14)
        assert val == pytest.approx(oracle, abs=1e-11)
        assert val == pytest.approx(0.2, abs=1e-12)

    def test_log_branch(self):
        assert q_transform(1.0, math.e, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_near_one_beta_matches_log(self):
        assert q_transform(1.0, 1.5, 1.0 - 1e-12) == pytest.approx(math.log(1.5), rel=1e-9)

    def test_negative_below_forward(self):
        assert q_transform(1.0, 0.8, 0.5) < 0.0


class TestSigmaMin:
    def test_atm(self):
        assert sigma_min(0.37, -0.6, 0.0) == 0.37

    def test_documented_point_vs_minimization_oracle(self):
        val = sigma_min(0.2, -0.8, 0.2)
        assert val == pytest.approx(0.12649110640673518, abs=1e-12)
        grid = np.linspace(1e-4, 1.0, 200_001)
        dists = [oracle_distance(0.2, -0.8, 0.2, s) for s in grid[:: 1000]]
        coarse_best = grid[::1000][int(np.argmin(dists))]
        fine = np.linspace(coarse_best - 0.01, coarse_best + 0.01, 4001)
        dists = [oracle_distance(0.2, -0.8, 0.2, s) for s in fine]
        assert fine[int(np.argmin(dists))] == pytest.approx(val, abs=1e-5)

    def test_pythagorean_case(self):
        assert sigma_min(0.3, 0.0, 0.4) == pytest.approx(0.5, abs=1e-15)

    def test_lower_bound_never_violated(self):
        rng = np.random.default_rng(11)
        for _ in range(5000):
            alpha = rng.uniform(0.005, 0.6)
            rho = rng.uniform(-0.95, 0.95)
            q = rng.uniform(-3 * alpha, 3 * alpha)
            assert sigma_min(alpha, rho, q) >= alpha * math.sqrt(1 - rho * rho) - 1e-15


class TestGeodesicDistance:
    def test_zero_at_the_money(self):
        assert geodesic_distance(0.3, -0.5, 0.0) == 0.0

    def test_documented_point(self):
        val = geodesic_distance(0.2, -0.8, 0.2)
        assert val == pytest.approx(1.4260624389053681, abs=1e-12)
        # matches the arccosh cross-check at (q, sigma_min)
        assert val == pytest.approx(
            oracle_distance(0.2, -0.8, 0.2, sigma_min(0.2, -0.8, 0.2)), abs=1e-12
        )

    def test_uncorrelated_point(self):
        val = geodesic_distance(0.2, 0.0, 0.2)
        assert val == pytest.approx(math.log((math.sqrt(0.08) + 0.2) / 0.2), abs=1e-14)
        assert val == pytest.approx(0.8813735870195429, abs=1e-12)

    def test_signed_below_forward(self):
        assert geodesic_distance(0.2, -0.3, -0.1) < 0.0

    def test_oracle_agreement_over_domain(self):
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            alpha = rng.uniform(0.005, 0.6)
            rho = rng.uniform(-0.95, 0.95)
            q = rng.uniform(-3 * alpha, 3 * alpha)
            d = geodesic_distance(alpha, rho, q)
            oracle = oracle_distance(alpha, rho, q, sigma_min(alpha, rho, q))
            assert abs(abs(d) - oracle) <= 1e-9

    def test_minimality_over_sigma_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 0.5)
            rho = rng.uniform(-0.9, 0.9)
            q = rng.uniform(-2 * alpha, 2 * alpha)
            smin = sigma_min(alpha, rho, q)
            grid = smin * np.linspace(0.5, 1.5, 201)
            dists = [oracle_distance(alpha, rho, q, s) for s in grid]
            best = grid[int(np.argmin(dists))]
            assert abs(best - smin) <= (grid[1] - grid[0]) + 1e-12


class TestSigma0:
    def test_atm_limit(self):
        p = SabrPoint(T=1.0, F0=1.0, K=1.0, alpha=0.23, beta=0.5, rho=-0.5, nu=0.4)
        assert sigma0_leading(p, 0.0) == pytest.approx(0.23, abs=1e-15)
        p2 = SabrPoint(T=1.0, F0=0.04, K=0.04, alpha=0.02, beta=0.5, rho=0.0, nu=0.4)
        assert sigma0_leading(p2, 0.0) == pytest.approx(0.02 * 0.04**-0.5, rel=1e-14)

    def test_documented_composition(self):
        p = SabrPoint(T=1.0, F0=1.0, K=1.21, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
        q = q_transform(1.0, 1.21, 0.5)
        d = geodesic_distance(0.2, -0.8, q)
        val = sigma0_leading(p, d)
        assert val == pytest.approx(math.log(1.21) / d, rel=1e-14)
        assert val == pytest.approx(0.13366901364779517, abs=1e-10)

    def test_lognormal_hand_case(self):
        # q = 0.1, sigma_min = sqrt(0.05), d = ln((sqrt(0.05)+0.1)/0.2)
        p = SabrPoint(T=1.0, F0=1.0, K=math.exp(0.1), alpha=0.2, beta=1.0, rho=0.0, nu=0.5)
        f = features(p)
        assert f.q == pytest.approx(0.1, abs=1e-15)
        assert f.sigma_min == pytest.approx(math.sqrt(0.05), abs=1e-15)
        assert f.d_h == pytest.approx(0.4812118250596035, abs=1e-12)
        assert f.sigma0 == pytest.approx(0.1 / 0.4812118250596035, abs=1e-12)

    def test_positive_on_both_wings(self):
        base = dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
        for K in (0.6, 0.9, 1.1, 1.6):
            f = features(SabrPoint(K=K, **base))
            assert f.sigma0 > 0.0


class TestFeatures:
    def test_atm_quadruple(self):
        p = SabrPoint(T=2.0, F0=0.03, K=0.03, alpha=0.04, beta=0.6, rho=-0.3, nu=0.4)
        f = features(p)
        assert f.q == 0.0
        assert f.sigma_min == 0.04
        assert f.d_h == 0.0
        assert f.sigma0 == pytest.approx(0.04 * 0.03 ** (-0.4), rel=1e-14)

    def test_documented_strike_quadruple(self):
        p = SabrPoint(T=1.0, F0=1.0, K=1.21, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
        f = features(p)
        assert f.q == pytest.approx(0.2, abs=1e-12)
        assert f.sigma_min == pytest.approx(0.126491, abs=1e-5)
        assert f.d_h == pytest.approx(1.4260624389053681, abs=1e-9)
        assert f.sigma0 == pytest.approx(0.13366901364779517, abs=1e-9)

    def test_wide_lognormal_strike(self):
        # arccosh oracle confirms d = ln((sqrt(1.04)+1)/0.2)
        p = SabrPoint(T=1.0, F0=1.0, K=math.e, alpha=0.2, beta=1.0, rho=0.0, nu=0.5)
        f = features(p)
        assert f.q == pytest.approx(1.0, abs=1e-15)
        assert f.sigma_min == pytest.approx(math.sqrt(1.04), abs=1e-14)
        assert f.d_h == pytest.approx(2.3124383412727526, abs=1e-12)
        assert f.d_h == pytest.approx(oracle_distance(0.2, 0.0, 1.0, f.sigma_min), abs=1e-12)
        assert f.sigma0 == pytest.approx(1.0 / 2.3124383412727526, abs=1e-12)

    def test_deterministic(self):
        p = SabrPoint(T=0.5, F0=0.02, K=0.025, alpha=0.015, beta=0.3, rho=0.1, nu=0.2)
        assert features(p) == features(p)


class TestHalfPlane:
    def test_uncorrelated_spot(self):
        hp = to_halfplane(0.0, 0.37, 0.0)
        assert (hp.u, hp.v) == (0.0, 0.37)

    def test_correlated_spot(self):
        hp = to_halfplane(0.0, 0.2, -0.8)
        assert hp.u == pytest.approx(0.26666666666666666, abs=1e-15)
        assert hp.v == 0.2

    def test_documented_strike_point(self):
        hp = to_halfplane(0.2, 0.12649110640673518, -0.8)
        assert hp.u == pytest.approx(0.5019881418756469, abs=1e-10)
        assert hp.v == pytest.approx(0.126491, abs=1e-6)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            to_halfplane(0.1, 0.0, 0.0)
