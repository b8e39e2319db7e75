"""The elements the array forms send through the C library's log, pow and
expm1, one Python-level call each: every power and log is taken only on
the points that read its result."""

import numpy as np
import pytest

from sabrkit import geometry, hagan, net
from sabrkit.datagen import GRID_INDICES, sample_config, strike_grid
from sabrkit.hagan import SabrPoint

ATM_INDEX = GRID_INDICES.index(0.0)


def grid_points(n, n_atm, seed):
    """``n`` points from the dataset generator, the first ``n_atm`` at the
    money and the rest at the grid's other strikes in turn."""
    rng = np.random.default_rng(seed)
    others = [i for i in range(len(GRID_INDICES)) if i != ATM_INDEX]
    points = []
    for i in range(n):
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        index = ATM_INDEX if i < n_atm else others[i % len(others)]
        K = float(strike_grid(F0, alpha, T)[index])
        points.append(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu))
    return points


@pytest.fixture
def calls(monkeypatch):
    """Every libm_log/libm_pow/libm_expm1 call made through hagan's and
    geometry's bindings, as (module, function, x, y) with y None for log and
    expm1."""
    made = []
    for module in (hagan, geometry):
        for name in ("libm_log", "libm_pow", "libm_expm1"):
            fn = getattr(module, name)

            def wrapped(x, *y, _fn=fn, _where=(module.__name__, name)):
                made.append((*_where, np.array(x, dtype=float),
                             np.broadcast_to(np.asarray(y[0], dtype=float), np.shape(x))
                             if y else None))
                return _fn(x, *y)

            monkeypatch.setattr(module, name, wrapped)
    return made


def pairs(calls, module, name):
    """The (x, y) element pairs one binding evaluated, in call order."""
    return [(float(a), float(b))
            for mod, fn, x, y in calls if mod == module and fn == name
            for a, b in zip(x, y)]


def n_elements(calls, module=None, name=None):
    return sum(x.size for mod, fn, x, _ in calls
               if module in (None, mod) and name in (None, fn))


@pytest.mark.parametrize("n, n_atm", [(44, 0), (44, 4), (22, 11), (11, 11)])
def test_powers_and_logs_only_where_read(calls, n, n_atm):
    points = grid_points(n, n_atm, seed=n + n_atm)
    cols = [np.array([getattr(p, f) for p in points]) for f in hagan.SABR_FIELDS]
    hagan.hagan_vols(*cols)
    atm, off = points[:n_atm], points[n_atm:]
    assert all(p.K == p.F0 for p in atm) and all(p.K != p.F0 for p in off)

    pow_pairs = pairs(calls, "sabrkit.hagan", "libm_pow")
    # (F0*K)^((1-b)/2), (F0*K)^(1-b) and (1-b)^4 on every point, at the
    # money too, and no other power: no F0^(1-b).
    for p in points:
        fk, omb = p.F0 * p.K, 1.0 - p.beta
        assert (fk, 0.5 * omb) in pow_pairs and (fk, omb) in pow_pairs
        assert (p.F0, omb) not in pow_pairs
    assert sorted(x for x, y in pow_pairs if y == 4.0) == sorted(1.0 - p.beta for p in points)
    assert len(pow_pairs) == 3 * n
    # One log(F0/K) per point, then the closed-form z/x(z) log only where
    # |z| >= 1e-6, which excludes the money (z = 0).
    assert n_elements(calls, "sabrkit.hagan", "libm_log") <= n + len(off)


@pytest.mark.parametrize("n, n_atm", [(44, 0), (44, 4), (11, 11)])
def test_batch_pricing_takes_at_most_nine_elements_a_point(calls, n, n_atm):
    points = grid_points(n, n_atm, seed=7 * n + n_atm)
    net.predict_vols(net.init_bundle("georesnn", seed=n), points)
    assert n_elements(calls, "sabrkit.geometry") > 0
    assert n_elements(calls) <= 9 * n
