import math

import mpmath as mp
import numpy as np
import pytest

from sabrkit.errors import NegativeVol
from sabrkit.hagan import SabrPoint, hagan_atm, hagan_vol, zx_ratio

mp.mp.dps = 40

TABLE1 = dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)


def mp_smile_vol(T, F0, K, alpha, beta, rho, nu):
    """Independent arbitrary-precision transcription of the smile formula."""
    T, F0, K, alpha, beta, rho, nu = [mp.mpf(repr(v)) for v in (T, F0, K, alpha, beta, rho, nu)]
    ln_fk = mp.log(F0 / K)
    fk_half = (F0 * K) ** ((1 - beta) / 2)
    z = nu / alpha * fk_half * ln_fk
    if z == 0:
        ratio = mp.mpf(1)
    else:
        x = mp.log((mp.sqrt(1 - 2 * rho * z + z * z) + z - rho) / (1 - rho))
        ratio = z / x
    money = 1 + (1 - beta) ** 2 / 24 * ln_fk**2 + (1 - beta) ** 4 / 1920 * ln_fk**4
    tail = 1 + T * (
        (1 - beta) ** 2 * alpha**2 / (24 * (F0 * K) ** (1 - beta))
        + rho * beta * nu * alpha / (4 * fk_half)
        + (2 - 3 * rho**2) * nu**2 / 24
    )
    return float(alpha / fk_half * money * ratio * tail)


class TestZxRatio:
    def test_limit_at_zero(self):
        assert zx_ratio(0.0, -0.5) == 1.0

    def test_unit_z_no_correlation(self):
        # 1/ln(1 + sqrt(2)), evaluated to high precision
        assert zx_ratio(1.0, 0.0) == pytest.approx(1.1345926571065110, abs=1e-12)

    def test_large_negative_rho(self):
        value = zx_ratio(3.4969, -0.8)
        assert value == pytest.approx(2.2300, abs=5e-4)
        z, rho = mp.mpf("3.4969"), mp.mpf("-0.8")
        oracle = z / mp.log((mp.sqrt(1 - 2 * rho * z + z * z) + z - rho) / (1 - rho))
        assert value == pytest.approx(float(oracle), abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.9, -0.4, 0.0, 0.4, 0.9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_series_meets_closed_form(self, rho, sign):
        # Truncation error of the first-order series at the switch point is
        # |(2-3*rho^2)/12| * z^2 <= 1.7e-13; evaluate the closed form in
        # exact arithmetic to keep the comparison noise-free.
        z = sign * 1e-6
        zm, rm = mp.mpf(repr(z)), mp.mpf(repr(rho))
        closed = float(zm / mp.log((mp.sqrt(1 - 2 * rm * zm + zm * zm) + zm - rm) / (1 - rm)))
        series = 1.0 - 0.5 * rho * z
        assert abs(series - closed) <= 1e-10
        assert zx_ratio(0.999 * z, rho) == pytest.approx(1.0 - 0.5 * rho * 0.999 * z, abs=1e-15)

    def test_continuity_across_series_threshold(self):
        # Genuine slope rho/2 plus closed-form cancellation noise (~1e-10
        # at |z| ~ 1e-6) bound the gap across the switch point.
        for rho in (-0.8, 0.3):
            below = zx_ratio(0.999e-6, rho)
            above = zx_ratio(1.001e-6, rho)
            assert abs(below - above) <= 5e-9


class TestAtm:
    def test_lognormal_flat(self):
        p = SabrPoint(T=3.0, F0=0.02, K=0.02, alpha=0.25, beta=1.0, rho=0.0, nu=0.0)
        assert hagan_atm(p) == pytest.approx(0.25, abs=1e-15)

    def test_wide_smile_parameters(self):
        # 0.2*(1 + 0.000416667 - 0.024 + 0.0048), term by term
        p = SabrPoint(K=1.0, **TABLE1)
        assert hagan_atm(p) == pytest.approx(0.19624333333333333, abs=1e-12)

    def test_cev_short_rate_scale(self):
        # alpha*F0^(beta-1) = 0.5, bracket = 1 + 0.01^2/(24*0.02^2)
        p = SabrPoint(T=1.0, F0=0.02, K=0.02, alpha=0.01, beta=0.0, rho=0.0, nu=0.0)
        assert hagan_atm(p) == pytest.approx(0.5052083333333333, abs=1e-12)

    def test_negative_bracket_raises(self):
        p = SabrPoint(T=2.0, F0=1.0, K=1.0, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
        with pytest.raises(NegativeVol):
            hagan_atm(p)


class TestSmile:
    def test_lognormal_flat_any_strike(self):
        for K in (0.4, 0.9, 1.0, 1.7, 2.5):
            p = SabrPoint(T=2.0, F0=1.3, K=K, alpha=0.37, beta=1.0, rho=0.3, nu=0.0)
            assert abs(hagan_vol(p) - 0.37) <= 1e-14

    def test_atm_is_dispatch_not_limit(self):
        p = SabrPoint(K=1.0, **TABLE1)
        assert hagan_vol(p) == hagan_atm(p)
        # z = 0 at the money, where z/x(z) is exactly 1
        assert zx_ratio(0.0, p.rho) == 1.0

    def test_against_independent_transcription(self):
        for K in (0.5, 0.77, 1.21, 1.9):
            p = SabrPoint(K=K, **TABLE1)
            assert hagan_vol(p) == pytest.approx(mp_smile_vol(K=K, **TABLE1), rel=1e-12)

    def test_frozen_wing_value(self):
        # Independent-transcription value at the documented strike
        p = SabrPoint(K=1.21, **TABLE1)
        assert hagan_vol(p) == pytest.approx(0.13044868254864284, rel=1e-12)

    def test_atm_continuity_random_points(self):
        # Points come from the dataset generator's domain; the genuine smile
        # slope there keeps the one-sided gap at K = F0*(1+1e-7) well below
        # the continuity budget.
        from sabrkit.datagen import sample_config

        rng = np.random.default_rng(7)
        for _ in range(1000):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            near = SabrPoint(T=T, F0=F0, K=F0 * (1 + 1e-7), alpha=alpha,
                             beta=beta, rho=rho, nu=nu)
            atm = hagan_atm(near)
            assert abs(hagan_vol(near) - atm) <= 1e-6 * atm
        wide = SabrPoint(K=1.0 * (1 + 1e-7), **TABLE1)
        assert abs(hagan_vol(wide) - hagan_atm(wide)) <= 1e-6 * hagan_atm(wide)

    def test_smile_is_continuous_on_fine_grid(self):
        # A discontinuity of size J shows up as a second difference >= J;
        # smooth variation contributes only O(|sigma''| dK^2) ~ 1e-7 here.
        p_kwargs = TABLE1
        ks = np.linspace(0.5, 2.0, 10_000)
        vols = np.array([hagan_vol(SabrPoint(K=float(k), **p_kwargs)) for k in ks])
        assert np.max(np.abs(np.diff(vols, 2))) <= 1e-6

    def test_beta_one_strike_dependence_through_ratio_only(self):
        p = SabrPoint(T=1.0, F0=1.0, K=1.4, alpha=0.3, beta=1.0, rho=-0.5, nu=0.8)
        ratio = zx_ratio(p.nu / p.alpha * math.log(p.F0 / p.K), p.rho)
        tail = 1.0 + p.T * (p.rho * p.nu * p.alpha / 4.0 + (2 - 3 * p.rho**2) * p.nu**2 / 24.0)
        assert hagan_vol(p) == pytest.approx(p.alpha * ratio * tail, rel=1e-14)
