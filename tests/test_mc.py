import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabrkit import mc
from sabrkit.datagen import sample_config, strike_grid
from sabrkit.errors import ConfigError, NonFinite, PriceOutOfBounds
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.mc import (
    McConfig,
    Terminals,
    implied_vol_from_estimate,
    price_from_terminals,
    simulate_terminals,
)
from sabrkit.pricing import black_price

from mixing import mixing_prices
from plain_mc import cv_price, mc_implied_vol, plain_price_from_terminals, serial_terminals

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

    @pytest.mark.parametrize("bad", [dict(paths=999), dict(cv_vol_mode="x")])
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
        price, std_error = cv_price(p, McConfig(paths=1000))
        assert price == black_price(1.0, 1.0, 1.1, 0.2)
        assert std_error == 0.0

    def test_implied_vol_recovers_alpha(self):
        p = SabrPoint(K=1.0, T=1.0, F0=1.0, alpha=0.2, beta=1.0, rho=0.0, nu=0.0)
        sigma, vol_std_error = mc_implied_vol(p, McConfig(paths=1000))
        assert abs(sigma - 0.2) <= 1e-10
        assert vol_std_error == 0.0


class TestStatistics:
    def test_martingale(self):
        t = simulate_wide(paths=50_000)
        se = t.f_sabr.std(ddof=1) / math.sqrt(t.f_sabr.size)
        assert abs(t.f_sabr.mean() - 1.0) <= 4.0 * se

    def test_sqrt_paths_convergence(self):
        ratios = []
        for seed in range(6):
            _, small = price_from_terminals(simulate_wide(paths=2000, seed=seed), 1.0)
            _, big = price_from_terminals(simulate_wide(paths=8000, seed=seed), 1.0)
            ratios.append(big / small)
        assert 0.4 <= float(np.mean(ratios)) <= 0.6

    def test_cv_agrees_with_plain_mc(self):
        rng = np.random.default_rng(5)
        for i in range(50):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            K = float(strike_grid(F0, alpha, T)[rng.integers(0, 11)])
            t = simulate_terminals(T, F0, alpha, beta, rho, nu,
                                   McConfig(paths=4000, base_seed=100 + i))
            cv, cv_se = price_from_terminals(t, K)
            plain, plain_se = plain_price_from_terminals(t, K)
            combined = math.hypot(cv_se, plain_se)
            assert abs(cv - plain) <= 3.0 * combined

    def test_cv_reduces_aggregate_variance_on_wide_smile(self):
        # Aggregated over the full strike table; the reduction concentrates
        # in the lower strikes where the control couples tightly.
        t = simulate_wide(paths=50_000)
        strikes = [0.5 + 0.1 * i for i in range(16)]
        cv_se = np.array([price_from_terminals(t, k)[1] for k in strikes])
        plain_se = np.array([plain_price_from_terminals(t, k)[1] for k in strikes])
        assert math.sqrt(np.mean(cv_se**2)) < math.sqrt(np.mean(plain_se**2))
        assert cv_se[0] < plain_se[0]

    def test_beta_one_matches_mixing_price(self):
        # The correlated stochastic-vol law against an independent price
        # (tests/mixing.py), on sample_config draws and at WIDE, all at
        # beta = 1. Over 20 pairs of engine and oracle seeds the largest |z|
        # on these 121 strikes ran from 1.9 to 4.9 (median 3.0): the Euler
        # step of the forward biases the wings of the 10-step maturities by
        # up to 1.6 standard errors at 50k paths. With rho flipped to -rho
        # in the oracle the largest |z| is 37, with rho at 0 it is 70.
        rng = np.random.default_rng(7)
        cases = [sample_config(rng) for _ in range(10)] + [tuple(WIDE.values())]
        z = []
        for i, (T, F0, alpha, _, rho, nu) in enumerate(cases):
            strikes = strike_grid(F0, alpha, T)
            t = simulate_terminals(T, F0, alpha, 1.0, rho, nu,
                                   McConfig(paths=50_000, base_seed=11), i)
            engine, engine_se = np.array([price_from_terminals(t, k) for k in strikes]).T
            mix, mix_se = mixing_prices(T, F0, alpha, rho, nu, strikes, pairs=25_000,
                                        seed=100 + i)
            z.append((engine - mix) / np.hypot(engine_se, mix_se))
        assert np.max(np.abs(z)) <= 6.0


class TestDeterminism:
    def test_bit_identical_estimates(self):
        p = SabrPoint(K=0.9, **WIDE)
        a = cv_price(p, McConfig(paths=5000))
        b = cv_price(p, McConfig(paths=5000))
        assert a == b

    def test_seed_changes_result(self):
        p = SabrPoint(K=0.9, **WIDE)
        a, _ = cv_price(p, McConfig(paths=5000, base_seed=1))
        b, _ = cv_price(p, McConfig(paths=5000, base_seed=2))
        assert a != b

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


def assert_same_terminals(got, want):
    assert got.f_sabr.tobytes() == want.f_sabr.tobytes()
    assert got.f_black.tobytes() == want.f_black.tobytes()
    assert (got.T, got.F0, got.sigma_bar) == (want.T, want.F0, want.sigma_bar)


BLOCK = McConfig.block_size


class TestThreadedBlocks:
    """The blocks run on threads; the terminals equal the serial per-step
    simulation in ``plain_mc`` bit for bit, whatever the thread count."""

    def test_thread_count(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert mc._thread_count(1, 10**9) == 1  # one block runs inline
        assert mc._thread_count(5, 10**9) == 4  # one thread per core
        assert mc._thread_count(3, 10**9) == 3  # one per block
        assert mc._thread_count(5, 20_000 * 10) == 1  # too little work to share
        assert mc._thread_count(5, 20_000 * 50) == 2  # 500k path-steps a thread

    @settings(max_examples=80, deadline=None)
    @given(paths=st.sampled_from([1000, BLOCK, 3 * BLOCK + 17]),
           threads=st.sampled_from([1, 2, 3]),
           T=st.floats(0.01, 1.0),
           F0=st.floats(0.005, 2.0),
           alpha=st.floats(0.005, 0.8),
           beta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           rho=st.one_of(st.sampled_from([-0.95, 0.95]), st.floats(-0.95, 0.95)),
           nu=st.floats(0.0, 1.5),
           cv_vol_mode=st.sampled_from(mc.CV_VOL_MODES),
           config_index=st.integers(0, 3))
    def test_equals_serial_oracle(self, paths, threads, T, F0, alpha, beta, rho, nu,
                                  cv_vol_mode, config_index):
        cfg = McConfig(paths=paths, cv_vol_mode=cv_vol_mode, base_seed=9)
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: min(threads, n_blocks))
            got = simulate_terminals(T, F0, alpha, beta, rho, nu, cfg, config_index)
            want = serial_terminals(T, F0, alpha, beta, rho, nu, cfg, config_index)
        assert_same_terminals(got, want)

    def test_more_threads_than_cores_with_short_switch_interval(self, monkeypatch):
        # Seven blocks on three threads, switching as often as the
        # interpreter allows: each thread must keep to its own rows.
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: 3)
        cfg = McConfig(paths=7 * BLOCK - 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_terminals(cfg=cfg, **WIDE)
        finally:
            sys.setswitchinterval(interval)
        assert_same_terminals(got, serial_terminals(cfg=cfg, **WIDE))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_exception_reaches_caller(self, monkeypatch, threads):
        class BlockFailed(Exception):
            pass

        real = np.random.SeedSequence

        # Block 1 runs on the calling thread with one thread, and on a
        # pool thread with two or three.
        def failing_block_1(entropy, spawn_key=()):
            if spawn_key == (0, 1):
                raise BlockFailed("block 1")
            return real(entropy, spawn_key=spawn_key)

        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: threads)
        monkeypatch.setattr(np.random, "SeedSequence", failing_block_1)
        before = threading.active_count()
        with pytest.raises(BlockFailed, match="block 1"):
            simulate_terminals(cfg=McConfig(paths=4 * BLOCK), **WIDE)
        assert threading.active_count() == before


CHUNK = McConfig.chunk_steps


def peak_traced_bytes(T, cfg):
    """tracemalloc's peak over one simulate_terminals call."""
    # A first call in the process imports modules worth about 1 MB.
    simulate_terminals(0.1, 0.03, 0.02, 0.5, -0.3, 0.6, McConfig(paths=1000))
    tracemalloc.start()
    try:
        simulate_terminals(T, 0.03, 0.02, 0.5, -0.3, 0.6, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVolChunks:
    """A block draws CHUNK steps of dw normals, then CHUNK steps of the vol
    factor's normals, chunk after chunk; the terminals still equal the
    serial oracle's, and a call's memory does not grow with maturity."""

    @pytest.mark.parametrize("n_steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1])
    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_boundaries_equal_serial_oracle(self, monkeypatch, n_steps, beta, threads):
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: threads)
        cfg = McConfig(paths=3 * BLOCK + 17, steps_per_year=n_steps, base_seed=4)
        assert cfg.n_steps(1.0) == n_steps
        params = dict(T=1.0, F0=0.04, alpha=0.3 * 0.04 ** (1.0 - beta), beta=beta,
                      rho=-0.6, nu=0.9)
        with np.errstate(all="ignore"):
            got = simulate_terminals(cfg=cfg, config_index=2, **params)
            want = serial_terminals(cfg=cfg, config_index=2, **params)
        assert_same_terminals(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_holds_one_chunk_per_factor_per_thread(self, monkeypatch, threads):
        # Per thread: CHUNK rows of dw, CHUNK + 1 rows of vols and a
        # scratch row, each BLOCK float64, and the thread's block of the
        # two terminal arrays. Holding the dw draws of all 1500 steps whole
        # would take 48 MB a thread.
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: threads)
        cfg = McConfig(paths=threads * BLOCK)
        rows = CHUNK + (CHUNK + 1) + 1 + 2
        assert peak_traced_bytes(30.0, cfg) <= 1.25 * threads * rows * BLOCK * 8

    def test_peak_memory_flat_in_maturity(self, monkeypatch):
        # 1500 steps hold what 50 do, to within one scratch row.
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: 2)
        cfg = McConfig(paths=2 * BLOCK)
        assert peak_traced_bytes(30.0, cfg) <= peak_traced_bytes(1.0, cfg) + BLOCK * 8


class TestSchemes:
    def test_absorption_keeps_forward_nonnegative(self):
        t = simulate_wide(paths=50_000)
        assert np.all(t.f_sabr >= 0.0)
        assert np.any(t.f_sabr == 0.0)  # this regime does absorb

    def test_cev_close_to_closed_form_near_atm(self):
        cfg = McConfig(paths=100_000)
        t = simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, 0.0, cfg)
        for K in (0.9, 1.0, 1.1):
            price, std_error = price_from_terminals(t, K)
            p = SabrPoint(T=1.0, F0=1.0, K=K, alpha=0.2, beta=0.5, rho=0.0, nu=0.0)
            got, _ = implied_vol_from_estimate(price, std_error, 1.0, 1.0, K)
            assert abs(got - hagan_vol(p)) <= 0.003


class TestErrors:
    def test_non_finite_payoff_raises(self):
        t = Terminals(T=1.0, F0=1.0, sigma_bar=0.2, f_sabr=np.array([1.0, np.inf]),
                      f_black=np.array([1.0, 1.0]))
        with pytest.raises(NonFinite):
            price_from_terminals(t, 1.0)

    def test_uninvertible_price_flagged(self):
        p = SabrPoint(T=0.1, F0=1.0, K=10.0, alpha=0.01, beta=1.0, rho=0.0, nu=0.0)
        with pytest.raises(PriceOutOfBounds):
            mc_implied_vol(p, McConfig(paths=1000))

    def test_vol_error_propagation(self):
        p = SabrPoint(K=1.0, **WIDE)
        price, std_error = cv_price(p, McConfig(paths=5000))
        sigma, vol_std_error = implied_vol_from_estimate(price, std_error, p.T, p.F0, p.K)
        assert vol_std_error == pytest.approx(std_error / _vega(sigma), rel=1e-12)


def _vega(sigma):
    from sabrkit.pricing import black_vega

    return black_vega(1.0, 1.0, 1.0, sigma)
