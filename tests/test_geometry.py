import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from sabrkit.datagen import sample_config, strike_grid
from sabrkit.geometry import features
from sabrkit.hagan import SabrPoint

from halfplane import geodesic_distance, sigma_min, to_halfplane


def hyp_dist(u1, v1, u2, v2):
    """Half-plane distance arccosh(1 + ((du)^2 + (dv)^2) / (2 v1 v2))."""
    return math.acosh(1.0 + ((u2 - u1) ** 2 + (v2 - v1) ** 2) / (2.0 * v1 * v2))


def mp_features(F0, K, alpha, beta, rho):
    """A 50-digit transcription of (q, sigma_min, d_h, sigma0) from the
    integral, log and ratio definitions, at the exact binary inputs."""
    with mp.workdps(50):
        F0, K, alpha, beta, rho = map(mp.mpf, (F0, K, alpha, beta, rho))
        omb = 1 - beta
        log_kf = mp.log(K / F0)
        q = log_kf if omb == 0 else (K**omb - F0**omb) / omb
        smin = mp.sqrt(alpha**2 + 2 * rho * alpha * q + q**2)
        d_h = mp.log((smin + rho * alpha + q) / ((1 + rho) * alpha))
        sigma0 = alpha * F0 ** (beta - 1) if q == 0 else log_kf / d_h
        return q, smin, d_h, sigma0


def relative_errors(f, exact):
    got = (f.q, f.sigma_min, f.d_h, f.sigma0)
    return np.array([float(abs(g - w) / abs(w)) if w else abs(g) for g, w in zip(got, exact)])


def served(F0=1.0, K=1.21, beta=0.5, alpha=0.2, rho=-0.8):
    """The served quadruple at one strike; T and nu do not enter it."""
    return features(SabrPoint(T=1.0, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=0.4))


def oracle_distance(alpha, rho, q, sigma):
    """Distance from the spot point (q=0, sigma=alpha) to (q, sigma)."""
    p1 = to_halfplane(0.0, alpha, rho)
    p2 = to_halfplane(q, sigma, rho)
    return hyp_dist(p1.u, p1.v, p2.u, p2.v)


class TestQTransform:
    def test_atm_is_zero(self):
        assert served(F0=1.3, K=1.3, beta=0.42).q == 0.0

    def test_power_branch_vs_quadrature(self):
        val = served(F0=1.0, K=1.21, beta=0.5).q
        oracle, _ = quad(lambda f: f**-0.5, 1.0, 1.21, epsabs=1e-14)
        assert val == pytest.approx(oracle, abs=1e-11)
        assert val == pytest.approx(0.2, abs=1e-12)

    def test_log_branch(self):
        assert served(F0=1.0, K=math.e, beta=1.0).q == pytest.approx(1.0, abs=1e-15)

    def test_near_one_beta_matches_log(self):
        assert served(F0=1.0, K=1.5, beta=1.0 - 1e-12).q == pytest.approx(math.log(1.5), rel=1e-9)

    def test_negative_below_forward(self):
        assert served(F0=1.0, K=0.8, beta=0.5).q < 0.0


class TestSigmaMin:
    def test_atm(self):
        assert served(F0=1.3, K=1.3, alpha=0.37, rho=-0.6).sigma_min == 0.37

    def test_documented_point_vs_minimization_oracle(self):
        f = served()
        val = f.sigma_min
        assert val == pytest.approx(0.12649110640673518, abs=1e-12)
        grid = np.linspace(1e-4, 1.0, 200_001)
        dists = [oracle_distance(0.2, -0.8, f.q, s) for s in grid[:: 1000]]
        coarse_best = grid[::1000][int(np.argmin(dists))]
        fine = np.linspace(coarse_best - 0.01, coarse_best + 0.01, 4001)
        dists = [oracle_distance(0.2, -0.8, f.q, s) for s in fine]
        assert fine[int(np.argmin(dists))] == pytest.approx(val, abs=1e-5)

    def test_pythagorean_case(self):
        f = served(K=math.exp(0.4), beta=1.0, alpha=0.3, rho=0.0)
        assert f.sigma_min == pytest.approx(0.5, abs=1e-15)

    def test_lower_bound_never_violated(self):
        rng = np.random.default_rng(11)
        for _ in range(5000):
            alpha = rng.uniform(0.005, 0.6)
            rho = rng.uniform(-0.95, 0.95)
            q = rng.uniform(-3 * alpha, 3 * alpha)
            f = served(K=math.exp(q), beta=1.0, alpha=alpha, rho=rho)
            assert f.sigma_min >= alpha * math.sqrt(1 - rho * rho) - 1e-15


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
        assert features(p).sigma0 == pytest.approx(0.23, abs=1e-15)
        p2 = SabrPoint(T=1.0, F0=0.04, K=0.04, alpha=0.02, beta=0.5, rho=0.0, nu=0.4)
        assert features(p2).sigma0 == pytest.approx(0.02 * 0.04**-0.5, rel=1e-14)

    def test_documented_composition(self):
        f = served()
        d = geodesic_distance(0.2, -0.8, f.q)
        val = f.sigma0
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


class TestExactArithmetic:
    def test_features_against_50_digit_transcription(self):
        # At grid strikes the four features hold ~1e-13 at every beta,
        # beta just below 1 included, where (K^(1-b) - F0^(1-b))/(1-b)
        # would lose ~1/(1-b) ulps. Beside the money q and d_h inherit the
        # rounding of K/F0 (~1e-16/|ln(K/F0)|) and are not bounded there;
        # sigma0 = ln(K/F0)/d_h cancels it, and z/x(z) is exact at every
        # zeta = q/alpha, so sigma0 holds 1e-13 beside the money at every
        # beta (1.1e-15 worst at beta ~ 1, where zeta ~ 1e-6).
        rng = np.random.default_rng(5)
        worst = {}
        for _ in range(60):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            for b, key in ((beta, "drawn"), (1.0 - 1e-8, "near one"), (1.0 - 1e-10, "near one")):
                for K in strike_grid(F0, alpha, T):
                    p = SabrPoint(T=T, F0=F0, K=float(K), alpha=alpha, beta=b, rho=rho, nu=nu)
                    err = relative_errors(features(p), mp_features(F0, p.K, alpha, b, rho))
                    worst[key] = np.maximum(worst.get(key, 0.0), err)
                for t in (-3e-8, -1.5e-8, 1.5e-8, 3e-8):
                    p = SabrPoint(T=T, F0=F0, K=F0 * math.exp(t), alpha=alpha, beta=b,
                                  rho=rho, nu=nu)
                    err = relative_errors(features(p), mp_features(F0, p.K, alpha, b, rho))
                    worst["money " + key] = max(worst.get("money " + key, 0.0), err[3])
        assert worst["drawn"].max() <= 5e-13
        assert worst["near one"].max() <= 2e-13
        assert worst["money drawn"] <= 1e-13
        assert worst["money near one"] <= 1e-13

    def test_sigma0_continuous_through_the_money(self):
        # Across |ln(K/F0)| = 1e-8 sigma0 moves only by its own slope (up to
        # ~1e-10 relative here); at K = F0 it is alpha*F0^(beta-1) to a few
        # ulp.
        rng = np.random.default_rng(11)
        cases = [dict(T=1.0, F0=0.03, alpha=0.02, beta=0.5, rho=-0.3, nu=0.3),
                 dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)]
        cases += [dict(zip(("T", "F0", "alpha", "beta", "rho", "nu"), sample_config(rng)))
                  for _ in range(2000)]
        for case in cases:
            atm = features(SabrPoint(K=case["F0"], **case)).sigma0
            assert abs(atm - case["alpha"] * case["F0"] ** (case["beta"] - 1.0)) <= 4 * math.ulp(atm)
            for sign in (1.0, -1.0):
                inside, outside = (features(SabrPoint(K=case["F0"] * math.exp(sign * t), **case))
                                   .sigma0 for t in (0.999e-8, 1.001e-8))
                assert abs(inside - outside) <= 1e-9 * outside


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
