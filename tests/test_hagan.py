import math

import mpmath as mp
import numpy as np
import pytest

from sabrkit.errors import DomainError
from sabrkit.hagan import SabrPoint, hagan_vol, hagan_vols, sabr_values, zx_ratio, zx_ratios

from atm import atm_vol

mp.mp.dps = 40

TABLE1 = dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)


def mp_zx(z, rho):
    """z/x(z) with the textbook x(z) = ln((sqrt(1-2*rho*z+z^2)+z-rho)/(1-rho)),
    at 40 digits plus twice the decimal exponent of |z|: the log's argument
    loses about 2*log10|z| digits to cancellation at large negative z, and
    lies within |z| of 1 at small |z|."""
    z, rho = mp.mpf(z), mp.mpf(rho)
    if z == 0:
        return mp.mpf(1)
    with mp.workdps(40 + 2 * abs(int(mp.log10(abs(z))))):
        return z / mp.log((mp.sqrt(1 - 2 * rho * z + z * z) + z - rho) / (1 - rho))


def mp_smile_vol(T, F0, K, alpha, beta, rho, nu):
    """Independent arbitrary-precision transcription of the smile formula."""
    T, F0, K, alpha, beta, rho, nu = [mp.mpf(repr(v)) for v in (T, F0, K, alpha, beta, rho, nu)]
    ln_fk = mp.log(F0 / K)
    fk_half = (F0 * K) ** ((1 - beta) / 2)
    ratio = mp_zx(nu / alpha * fk_half * ln_fk, rho)
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
        assert value == pytest.approx(float(mp_zx(3.4969, -0.8)), abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.3, 0.95])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_both_forms_against_exact_arithmetic(self, rho, sign):
        # One cancellation-free expression from |z| = 1e-300 to 1e150, in
        # both forms: within 1e-15 of mp_zx (2.7e-16 worst). A log of the
        # textbook argument loses ~1e-16/|z| beside z = 0.
        def both_forms(z):
            with np.errstate(all="ignore"):
                batch = zx_ratios(z, np.full_like(z, rho))
            return np.array([zx_ratio(v, rho) for v in z.tolist()]), batch

        z = sign * np.array([1e-300, 1e-200, 1e-16, 1e-12, 1e-8, 1e-6, 1e-3, 0.5, 1.0, 3.0,
                             1e3, 1e8, 1e17, 1e100, 1e150])
        exact = np.array([float(mp_zx(v, rho)) for v in z.tolist()])
        for form in both_forms(z):
            assert np.max(np.abs(form - exact) / exact) <= 1e-15
        # x(z) is 0 at z = 0 and at a subnormal z, where the factor is 1;
        # where z*z overflows x(z) is +-inf, and the factor 0.
        for form in both_forms(sign * np.array([0.0, 5e-324, 1e160])):
            assert list(form) == [1.0, 1.0, 0.0]

    def test_continuous_beside_zero(self):
        # z/x(z) = 1 + rho*z/2 + O(z^2): from z = 0.999e-6 to 1.001e-6 it
        # moves only by its genuine slope, rho/2 * 2e-9 = 8e-10 at rho = -0.8.
        for rho in (-0.8, 0.3):
            below = zx_ratio(0.999e-6, rho)
            above = zx_ratio(1.001e-6, rho)
            assert abs(below - above) <= 5e-9


class TestAtm:
    """The general formula at K = F0, against hand-derived values and the
    reduced at-the-money formula."""

    def test_lognormal_flat(self):
        p = SabrPoint(T=3.0, F0=0.02, K=0.02, alpha=0.25, beta=1.0, rho=0.0, nu=0.0)
        assert hagan_vol(p) == pytest.approx(0.25, abs=1e-15)
        assert atm_vol(p) == pytest.approx(0.25, abs=1e-15)

    def test_wide_smile_parameters(self):
        # 0.2*(1 + 0.000416667 - 0.024 + 0.0048), term by term
        p = SabrPoint(K=1.0, **TABLE1)
        assert hagan_vol(p) == pytest.approx(0.19624333333333333, abs=1e-12)
        assert atm_vol(p) == pytest.approx(0.19624333333333333, abs=1e-12)

    def test_cev_short_rate_scale(self):
        # alpha*F0^(beta-1) = 0.5, bracket = 1 + 0.01^2/(24*0.02^2)
        p = SabrPoint(T=1.0, F0=0.02, K=0.02, alpha=0.01, beta=0.0, rho=0.0, nu=0.0)
        assert hagan_vol(p) == pytest.approx(0.5052083333333333, abs=1e-12)
        assert atm_vol(p) == pytest.approx(0.5052083333333333, abs=1e-12)

    def test_negative_bracket_raises(self):
        p = SabrPoint(T=2.0, F0=1.0, K=1.0, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)
        assert atm_vol(p) <= 0.0
        with pytest.raises(DomainError, match="^closed form fails: vol -"):
            hagan_vol(p)


class TestSmile:
    def test_lognormal_flat_any_strike(self):
        for K in (0.4, 0.9, 1.0, 1.7, 2.5):
            p = SabrPoint(T=2.0, F0=1.3, K=K, alpha=0.37, beta=1.0, rho=0.3, nu=0.0)
            assert abs(hagan_vol(p) - 0.37) <= 1e-14

    def test_atm_is_the_general_formula_at_z_zero(self):
        # z = 0 at the money, where z/x(z) is exactly 1 and so is the
        # moneyness bracket: the general formula is the ATM formula there.
        p = SabrPoint(K=1.0, **TABLE1)
        assert zx_ratio(0.0, p.rho) == 1.0
        assert hagan_vol(p) == atm_vol(p)

    def test_against_independent_transcription(self):
        for K in (0.5, 0.77, 1.21, 1.9):
            p = SabrPoint(K=K, **TABLE1)
            assert hagan_vol(p) == pytest.approx(mp_smile_vol(K=K, **TABLE1), rel=1e-12)

    def test_beta_just_below_one_against_transcription(self):
        # (1-b) enters every power and bracket as it is, however small; a
        # vol that counted it as 0 would be ~5e-10 off here.
        from sabrkit.datagen import sample_config, strike_grid

        rng = np.random.default_rng(3)
        beta = 1.0 - 1e-10
        cases = [dict(TABLE1, beta=beta)]
        cases += [dict(zip(("T", "F0", "alpha", "beta", "rho", "nu"), sample_config(rng)),
                       beta=beta) for _ in range(20)]
        for case in cases:
            for K in strike_grid(case["F0"], case["alpha"], case["T"]):
                vol = hagan_vol(SabrPoint(K=float(K), **case))
                assert vol == pytest.approx(mp_smile_vol(K=float(K), **case), rel=1e-13)

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
            atm = atm_vol(near)
            assert abs(hagan_vol(near) - atm) <= 1e-6 * atm
        wide = SabrPoint(K=1.0 * (1 + 1e-7), **TABLE1)
        assert abs(hagan_vol(wide) - atm_vol(wide)) <= 1e-6 * atm_vol(wide)

    def test_continuous_through_the_money(self):
        # Across |ln(F0/K)| = 1e-8 the vol moves only by the smile's own
        # slope (~1e-10 relative here), and at K = F0 it is the ATM formula
        # to a few ulp and the exact-arithmetic transcription to 1e-12.
        from sabrkit.datagen import sample_config

        rng = np.random.default_rng(11)
        cases = [dict(T=1.0, F0=0.03, alpha=0.02, beta=0.5, rho=-0.3, nu=0.3), TABLE1]
        cases += [dict(zip(("T", "F0", "alpha", "beta", "rho", "nu"), sample_config(rng)))
                  for _ in range(2000)]
        for case in cases:
            atm = SabrPoint(K=case["F0"], **case)
            vol = hagan_vol(atm)
            assert abs(vol - atm_vol(atm)) <= 4 * math.ulp(vol)
            assert vol == pytest.approx(mp_smile_vol(K=case["F0"], **case), rel=1e-12)
            for sign in (1.0, -1.0):
                inside, outside = (hagan_vol(SabrPoint(K=case["F0"] * math.exp(sign * t), **case))
                                   for t in (0.999e-8, 1.001e-8))
                assert abs(inside - outside) <= 1e-9 * outside

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


def grid_points():
    """440 points: 40 generator configurations at their 11 grid strikes."""
    from sabrkit.datagen import sample_config, strike_grid

    rng = np.random.default_rng(42)
    points = []
    for _ in range(40):
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        points += [SabrPoint(T=T, F0=F0, K=float(K), alpha=alpha, beta=beta, rho=rho, nu=nu)
                   for K in strike_grid(F0, alpha, T)]
    return points


def stressed_points():
    """400 points at beta = 0 and rho = +-0.95 with F0 up to 1e16, where z
    reaches -1e17: there (sqrt(1-2*rho*z+z^2)+z-rho)/(1-rho), the textbook
    x(z) log's argument, cancels to garbage in floating point."""
    rng = np.random.default_rng(1)
    points = []
    for i in range(400):
        F0 = 10.0 ** rng.uniform(-2.0, 16.0)
        points.append(SabrPoint(T=rng.uniform(0.1, 5.0), F0=F0, K=F0 * math.exp(rng.uniform(-1.0, 1.0)),
                                alpha=rng.uniform(0.01, 1.0), beta=0.0, rho=(-0.95, 0.95)[i % 2],
                                nu=rng.uniform(0.1, 2.0)))
    return points


# The worst relative error of the closed form against the transcription,
# in either form: 7.96e-16 on the grid, where z/x(z) is exact beside the
# money as elsewhere, and 2.95e-14 on the stressed points. Each bound is
# the error rounded up; the scalar and the array form must both meet it.
@pytest.mark.parametrize("points, bound", [(grid_points, 4e-15), (stressed_points, 1e-13)],
                         ids=["grid", "stressed"])
def test_both_forms_against_transcription(points, bound):
    points = points()
    batch = hagan_vols(*np.array([sabr_values(p) for p in points]).T)
    exact = np.array([mp_smile_vol(*sabr_values(p)) for p in points])
    for form in (np.array([hagan_vol(p) for p in points]), batch):
        assert np.max(np.abs(form - exact) / exact) <= bound


def test_transcription_holds_where_the_textbook_argument_cancels():
    # z = -4.6e23: at a fixed 40 digits the textbook x(z) argument cancels
    # to 0 and the transcription would read 0.0; mp_zx raises the precision
    # with |z|, and the closed form meets it.
    p = SabrPoint(T=1.0, F0=1e22, K=2.5e22, alpha=0.05, beta=0.0, rho=0.75, nu=1.6)
    assert mp_smile_vol(*sabr_values(p)) == 0.028712740247078213
    assert hagan_vol(p) == pytest.approx(0.028712740247078213, rel=1e-13)
