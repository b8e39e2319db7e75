import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabrkit.datagen import sample_config, strike_grid
from sabrkit.errors import ConfigError, NonFinite, PriceOutOfBounds
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.mc import (
    McConfig,
    Terminals,
    cv_price,
    price_from_terminals,
    simulate_terminals,
)
from sabrkit.pricing import black_price

from plain_mc import mc_implied_vol, plain_price_from_terminals

WIDE = dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)


def simulate_wide(paths=20_000, seed=42, **overrides):
    cfg = McConfig(paths=paths, base_seed=seed, **overrides)
    return simulate_terminals(WIDE["T"], WIDE["F0"], WIDE["alpha"], WIDE["beta"],
                              WIDE["rho"], WIDE["nu"], cfg)


class TestConfig:
    def test_steps_scale_with_maturity(self):
        cfg = McConfig(paths=1000)
        assert cfg.n_steps(1.0) == 50
        assert cfg.n_steps(5.0) == 250
        assert cfg.n_steps(7 / 365) == 10  # short tenors keep a floor

    def test_sigma_bar_modes(self):
        cfg = McConfig(paths=1000)
        assert cfg.sigma_bar(0.03, 0.02, 0.5) == 0.03
        eff = McConfig(paths=1000, cv_vol_mode="effective_atm")
        assert eff.sigma_bar(0.03, 0.02, 0.5) == pytest.approx(0.03 * 0.02**-0.5, rel=1e-14)

    @pytest.mark.parametrize("bad", [dict(paths=999), dict(cv_vol_mode="x"),
                                     dict(sigma_scheme="exact")])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            McConfig(**{"paths": 1000, **bad})

    def test_invalid_params_rejected(self):
        cfg = McConfig(paths=1000)
        with pytest.raises(ConfigError):
            simulate_terminals(1.0, 1.0, 0.2, 1.5, 0.0, 0.0, cfg)
        with pytest.raises(ConfigError):
            simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, -0.1, cfg)

    def test_nan_rho_rejected(self):
        with pytest.raises(ConfigError):
            simulate_terminals(1.0, 1.0, 0.2, 0.5, float("nan"), 0.3, McConfig(paths=1000))


def param(lo, hi, *edges):
    """Finite values in [lo, hi], the domain's edges, and non-finite ones."""
    return st.one_of(st.floats(lo, hi),
                     st.sampled_from((math.nan, math.inf, -math.inf, 0.0, *edges)))


def rejects(fn) -> bool:
    try:
        with np.errstate(all="ignore"):
            fn()
    except ConfigError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(param(-1.0, 2.0), param(-1.0, 5.0), param(-1.0, 1.0), param(-0.5, 1.5, 1.0),
       param(-1.5, 1.5, 0.95, -0.95), param(-1.0, 3.0))
def test_point_and_simulation_share_one_domain(T, F0, alpha, beta, rho, nu):
    cfg = McConfig(paths=1000)
    assert (rejects(lambda: SabrPoint(T=T, F0=F0, K=1.0, alpha=alpha, beta=beta, rho=rho, nu=nu))
            == rejects(lambda: simulate_terminals(T, F0, alpha, beta, rho, nu, cfg)))


class TestDegenerate:
    def test_lognormal_no_volofvol_paths_coincide(self):
        cfg = McConfig(paths=2000)
        t = simulate_terminals(1.0, 1.0, 0.2, 1.0, 0.0, 0.0, cfg)
        assert np.array_equal(t.f_sabr, t.f_black)

    def test_cv_price_is_exact_black(self):
        p = SabrPoint(K=1.1, T=1.0, F0=1.0, alpha=0.2, beta=1.0, rho=0.0, nu=0.0)
        est = cv_price(p, McConfig(paths=1000))
        assert est.price == black_price(1.0, 1.0, 1.1, 0.2)
        assert est.std_error == 0.0

    def test_implied_vol_recovers_alpha(self):
        p = SabrPoint(K=1.0, T=1.0, F0=1.0, alpha=0.2, beta=1.0, rho=0.0, nu=0.0)
        out = mc_implied_vol(p, McConfig(paths=1000))
        assert abs(out.sigma - 0.2) <= 1e-10
        assert out.vol_std_error == 0.0

    def test_no_volofvol_keeps_sigma_constant(self):
        # With nu = 0 both sigma schemes reduce to a constant path.
        for scheme in ("log_exact", "euler_strict"):
            cfg = McConfig(paths=1000, sigma_scheme=scheme)
            a = simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, 0.0, cfg)
            b = simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, 0.0, McConfig(paths=1000))
            assert np.array_equal(a.f_sabr, b.f_sabr)


class TestStatistics:
    def test_martingale(self):
        t = simulate_wide(paths=50_000)
        se = t.f_sabr.std(ddof=1) / math.sqrt(t.f_sabr.size)
        assert abs(t.f_sabr.mean() - 1.0) <= 4.0 * se

    def test_sqrt_paths_convergence(self):
        ratios = []
        for seed in range(6):
            small = price_from_terminals(simulate_wide(paths=2000, seed=seed), 1.0)
            big = price_from_terminals(simulate_wide(paths=8000, seed=seed), 1.0)
            ratios.append(big.std_error / small.std_error)
        assert 0.4 <= float(np.mean(ratios)) <= 0.6

    def test_cv_agrees_with_plain_mc(self):
        rng = np.random.default_rng(5)
        for i in range(50):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            K = float(strike_grid(F0, alpha, T)[rng.integers(0, 11)])
            t = simulate_terminals(T, F0, alpha, beta, rho, nu,
                                   McConfig(paths=4000, base_seed=100 + i))
            cv = price_from_terminals(t, K)
            plain = plain_price_from_terminals(t, K)
            combined = math.hypot(cv.std_error, plain.std_error)
            assert abs(cv.price - plain.price) <= 3.0 * combined

    def test_cv_reduces_aggregate_variance_on_wide_smile(self):
        # Aggregated over the full strike table; the reduction concentrates
        # in the lower strikes where the control couples tightly.
        t = simulate_wide(paths=50_000)
        strikes = [0.5 + 0.1 * i for i in range(16)]
        cv_se = np.array([price_from_terminals(t, k).std_error for k in strikes])
        plain_se = np.array([plain_price_from_terminals(t, k).std_error for k in strikes])
        assert math.sqrt(np.mean(cv_se**2)) < math.sqrt(np.mean(plain_se**2))
        assert cv_se[0] < plain_se[0]


class TestDeterminism:
    def test_bit_identical_estimates(self):
        p = SabrPoint(K=0.9, **WIDE)
        a = cv_price(p, McConfig(paths=5000))
        b = cv_price(p, McConfig(paths=5000))
        assert a == b

    def test_seed_changes_result(self):
        p = SabrPoint(K=0.9, **WIDE)
        a = cv_price(p, McConfig(paths=5000, base_seed=1))
        b = cv_price(p, McConfig(paths=5000, base_seed=2))
        assert a.price != b.price

    def test_config_index_changes_stream(self):
        cfg = McConfig(paths=2000)
        a = simulate_terminals(config_index=0, cfg=cfg, **WIDE2())
        b = simulate_terminals(config_index=1, cfg=cfg, **WIDE2())
        assert not np.array_equal(a.f_sabr, b.f_sabr)

    def test_strike_reuse_consumes_no_draws(self):
        t = simulate_wide(paths=4000)
        one = price_from_terminals(t, 1.0)
        for k in strike_grid(1.0, 0.2, 1.0):
            price_from_terminals(t, float(k))
        again = price_from_terminals(t, 1.0)
        assert one == again


def WIDE2():
    return dict(T=WIDE["T"], F0=WIDE["F0"], alpha=WIDE["alpha"], beta=WIDE["beta"],
                rho=WIDE["rho"], nu=WIDE["nu"])


class TestSchemes:
    def test_sigma_schemes_differ_with_volofvol(self):
        a = simulate_wide(paths=2000)
        b = simulate_wide(paths=2000, sigma_scheme="euler_strict")
        assert not np.array_equal(a.f_sabr, b.f_sabr)

    def test_absorption_keeps_forward_nonnegative(self):
        t = simulate_wide(paths=50_000)
        assert np.all(t.f_sabr >= 0.0)
        assert np.any(t.f_sabr == 0.0)  # this regime does absorb

    def test_cev_close_to_closed_form_near_atm(self):
        cfg = McConfig(paths=100_000)
        t = simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, 0.0, cfg)
        for K in (0.9, 1.0, 1.1):
            est = price_from_terminals(t, K)
            p = SabrPoint(T=1.0, F0=1.0, K=K, alpha=0.2, beta=0.5, rho=0.0, nu=0.0)
            from sabrkit.mc import implied_vol_from_estimate

            got = implied_vol_from_estimate(est, 1.0, 1.0, K).sigma
            assert abs(got - hagan_vol(p)) <= 0.003


class TestErrors:
    def test_non_finite_payoff_raises(self):
        t = Terminals(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=0.0, nu=0.0,
                      sigma_bar=0.2, f_sabr=np.array([1.0, np.inf]),
                      f_black=np.array([1.0, 1.0]))
        with pytest.raises(NonFinite):
            price_from_terminals(t, 1.0)

    def test_uninvertible_price_flagged(self):
        p = SabrPoint(T=0.1, F0=1.0, K=10.0, alpha=0.01, beta=1.0, rho=0.0, nu=0.0)
        with pytest.raises(PriceOutOfBounds):
            mc_implied_vol(p, McConfig(paths=1000))

    def test_vol_error_propagation(self):
        p = SabrPoint(K=1.0, **WIDE)
        out = mc_implied_vol(p, McConfig(paths=5000))
        assert out.vol_std_error == pytest.approx(
            out.estimate.std_error / _vega(out.sigma), rel=1e-12
        )


def _vega(sigma):
    from sabrkit.pricing import black_vega

    return black_vega(1.0, 1.0, 1.0, sigma)
