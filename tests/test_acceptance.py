"""Acceptance gates, one test per criterion (split where a criterion bundles
independent gates). Each prints a PASS/FAIL line so the suite run doubles
as the acceptance report.

Two gates fail by design and are documented in their tests' docstrings: the
published wide-smile Monte Carlo column cannot be reproduced by a faithful
simulation of the stated dynamics (criterion 7), and a correctly trained
direct network scores far too high for the required R^2 separation to
exist (criteria 9a/9b). Their tests assert the stated gate and stay red.
"""

import math
import sys
import time

import numpy as np
import pytest

from sabrkit.datagen import build_dataset, filter_outliers, sample_config, split_dataset, strike_grid
from sabrkit.evaluation import latency_bench, r2
from sabrkit.geometry import features, q_transform, sigma_min
from sabrkit.hagan import SabrPoint, hagan_atm, hagan_vol
from sabrkit.mc import (
    McConfig,
    implied_vol_from_estimate,
    price_from_terminals,
    simulate_terminals,
)
from sabrkit.net import (
    TrainConfig,
    backward,
    forward,
    init_bundle,
    load_model,
    predict_from_rows,
    predict_vol,
    save_model,
    train,
    trainable_params,
)
from sabrkit.pricing import black_price, black_vega, implied_vol

from halfplane import geodesic_distance, to_halfplane
from plain_mc import mc_implied_vol, plain_price_from_terminals

WIDE = dict(T=1.0, F0=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)

# Published wide-smile reference table (strike -> (formula column, MC column)).
PUBLISHED_SMILE = {
    0.5: (0.479629, 0.437594), 0.6: (0.408284, 0.365567), 0.7: (0.341588, 0.302924),
    0.8: (0.278291, 0.247893), 0.9: (0.219048, 0.199904), 1.0: (0.174469, 0.167880),
    1.1: (0.175983, 0.167897), 1.2: (0.207090, 0.187350), 1.3: (0.242159, 0.209537),
    1.4: (0.276081, 0.230476), 1.5: (0.308127, 0.249331), 1.6: (0.338332, 0.266118),
    1.7: (0.366869, 0.281714), 1.8: (0.393927, 0.296523), 1.9: (0.419671, 0.310618),
    2.0: (0.444244, 0.324398),
}


def note(text: str) -> None:
    print(f"[acceptance] {text}", file=sys.__stdout__, flush=True)


def _gate(criterion: str, passed: bool, detail: str) -> None:
    import conftest

    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    conftest.acceptance_report.append(line)
    note(line)


def test_criterion_1_round_trip():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    checked = skipped = 0
    worst = 0.0
    while checked < 10_000:
        T = rng.uniform(0.02, 5.0)
        F0 = rng.uniform(0.005, 2.0)
        K = F0 * rng.uniform(0.5, 2.0)
        sigma = rng.uniform(0.01, 1.5)
        price = black_price(T, F0, K, sigma)
        # Draws whose float64 price cannot resolve sigma to 1e-8 (payoff at
        # or below intrinsic-plus-ulp) are outside any solver's contract.
        vega = black_vega(T, F0, K, sigma)
        if (not max(F0 - K, 0.0) + 1e-300 < price < F0 or price < 5e-300
                or vega * 1e-8 * sigma <= 10.0 * np.spacing(price)):
            skipped += 1
            continue
        recovered = implied_vol(price, T, F0, K)
        worst = max(worst, abs(recovered - sigma) / sigma)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0 and skipped < 0.1 * checked
    _gate("1", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s, "
                   f"{skipped} resolution-limited draws skipped")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_hagan_exactness():
    rng = np.random.default_rng(77)
    worst_flat = 0.0
    for _ in range(1000):
        p = SabrPoint(
            T=rng.uniform(0.02, 5.0), F0=rng.uniform(0.005, 2.0),
            K=rng.uniform(0.005, 2.0), alpha=rng.uniform(0.01, 1.0),
            beta=1.0, rho=rng.uniform(-0.95, 0.95), nu=0.0,
        )
        worst_flat = max(worst_flat, abs(hagan_vol(p) - p.alpha))
    worst_gap = 0.0
    rng = np.random.default_rng(78)
    for _ in range(1000):
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        p = SabrPoint(T=T, F0=F0, K=F0 * (1 + 1e-7), alpha=alpha, beta=beta,
                      rho=rho, nu=nu)
        atm = hagan_atm(p)
        worst_gap = max(worst_gap, abs(hagan_vol(p) - atm) / atm)
    ok = worst_flat <= 1e-14 and worst_gap <= 1e-6
    _gate("2", ok, f"flat-case err {worst_flat:.2e}, ATM continuity gap {worst_gap:.2e}")
    assert worst_flat <= 1e-14
    assert worst_gap <= 1e-6


def test_criterion_3_geometry():
    q = q_transform(1.0, 1.21, 0.5)
    smin = sigma_min(0.2, -0.8, q)
    d = geodesic_distance(0.2, -0.8, q)
    s0 = math.log(1.21) / d
    # The quoted distance constant 1.42600 truncates the derived value
    # 1.4260624... (confirmed by the half-plane oracle); it carries the
    # documented 1e-4 example tolerance while everything else meets 1e-5.
    assert abs(q - 0.2) <= 1e-5
    assert abs(smin - 0.126491) <= 1e-5
    assert abs(d - 1.4260624389053681) <= 1e-5
    assert abs(d - 1.42600) <= 1e-4
    assert abs(s0 - 0.133674) <= 1e-5

    def oracle(alpha, rho, qv):
        p1 = to_halfplane(0.0, alpha, rho)
        p2 = to_halfplane(qv, sigma_min(alpha, rho, qv), rho)
        return math.acosh(1.0 + ((p2.u - p1.u) ** 2 + (p2.v - p1.v) ** 2)
                          / (2.0 * p1.v * p2.v))

    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(10_000):
        alpha = rng.uniform(0.005, 0.6)
        rho = rng.uniform(-0.95, 0.95)
        qv = rng.uniform(-3 * alpha, 3 * alpha)
        worst = max(worst, abs(abs(geodesic_distance(alpha, rho, qv))
                               - oracle(alpha, rho, qv)))
    _gate("3", worst <= 1e-9,
          f"quadruple reproduced, oracle agreement {worst:.1e} over 1e4 points")
    assert worst <= 1e-9


def test_criterion_4_mc_exact_degenerate():
    start = time.perf_counter()
    worst = 0.0
    for paths in (1000, 4096, 20_000):
        p = SabrPoint(K=1.05, T=1.0, F0=1.0, alpha=0.2, beta=1.0, rho=0.0, nu=0.0)
        out = mc_implied_vol(p, McConfig(paths=paths))
        worst = max(worst, abs(out.sigma - 0.2))
        assert out.estimate.std_error == 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _gate("4", ok, f"worst |vol - alpha| {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_5_mc_statistics():
    ratios = []
    for seed in range(20):
        small = price_from_terminals(
            simulate_terminals(cfg=McConfig(paths=2000, base_seed=seed), **WIDE), 1.0)
        big = price_from_terminals(
            simulate_terminals(cfg=McConfig(paths=8000, base_seed=seed), **WIDE), 1.0)
        ratios.append(big.std_error / small.std_error)
    mean_ratio = float(np.mean(ratios))

    terminals = simulate_terminals(cfg=McConfig(paths=50_000, base_seed=42), **WIDE)
    strikes = sorted(PUBLISHED_SMILE)
    cv_se = np.array([price_from_terminals(terminals, k).std_error for k in strikes])
    plain_se = np.array([plain_price_from_terminals(terminals, k).std_error for k in strikes])
    cv_rms = math.sqrt(float(np.mean(cv_se**2)))
    plain_rms = math.sqrt(float(np.mean(plain_se**2)))

    ok = 0.4 <= mean_ratio <= 0.6 and cv_rms < plain_rms
    _gate("5", ok, f"se ratio {mean_ratio:.3f}, cv rms {cv_rms:.2e} < plain rms {plain_rms:.2e}")
    assert 0.4 <= mean_ratio <= 0.6
    assert cv_rms < plain_rms


def test_criterion_6_cev_cross_check():
    cfg = McConfig(paths=400_000, base_seed=42)
    terminals = simulate_terminals(1.0, 1.0, 0.2, 0.5, 0.0, 0.0, cfg)
    worst = 0.0
    for K in (0.9, 1.0, 1.1):
        estimate = price_from_terminals(terminals, K)
        mc_vol = implied_vol_from_estimate(estimate, 1.0, 1.0, K).sigma
        formula = hagan_vol(SabrPoint(T=1.0, F0=1.0, K=K, alpha=0.2, beta=0.5,
                                      rho=0.0, nu=0.0))
        worst = max(worst, abs(mc_vol - formula))
    _gate("6", worst <= 0.003, f"worst |mc - formula| {worst:.2e}")
    assert worst <= 0.003


@pytest.fixture(scope="module")
def desk_smile():
    start = time.perf_counter()
    terminals = simulate_terminals(cfg=McConfig(paths=200_000, base_seed=42), **WIDE)
    rows = {}
    for k in sorted(PUBLISHED_SMILE):
        estimate = price_from_terminals(terminals, k)
        rows[k] = implied_vol_from_estimate(estimate, 1.0, 1.0, k).sigma
    return rows, time.perf_counter() - start


def test_criterion_7_runtime_and_formula_comparison(desk_smile):
    mc_vols, elapsed = desk_smile
    lines = [f"{k:4.1f} formula_here={hagan_vol(SabrPoint(K=k, **WIDE)):.6f} "
             f"published_formula={PUBLISHED_SMILE[k][0]:.6f} "
             f"mc_here={mc_vols[k]:.6f} published_mc={PUBLISHED_SMILE[k][1]:.6f}"
             for k in sorted(PUBLISHED_SMILE)]
    note("criterion 7 (informational formula-column comparison):")
    for line in lines:
        note("  " + line)
    _gate("7-runtime", elapsed <= 120.0, f"16-strike smile at 2e5 paths in {elapsed:.1f}s")
    assert elapsed <= 120.0


def test_criterion_7_published_mc_column(desk_smile):
    """Documented red: the published Monte Carlo smile is not generated by
    the stated dynamics.

    Simulations converged in the step count (50 vs 800 steps agree within
    0.005) and consistent across schemes sit ~0.1 vol away from the
    published right wing; the published column fits an effective
    correlation near -0.17 rather than the stated -0.8.
    """
    mc_vols, _ = desk_smile
    errors = {k: mc_vols[k] - PUBLISHED_SMILE[k][1] for k in mc_vols}
    worst_k = max(errors, key=lambda k: abs(errors[k]))
    detail = (f"worst |mc - published| {abs(errors[worst_k]):.3f} at K={worst_k} "
              f"(gate 0.015); engine reference values are self-consistent")
    _gate("7-mc-column", all(abs(e) <= 0.015 for e in errors.values()), detail)
    assert all(abs(e) <= 0.015 for e in errors.values()), detail


def test_criterion_8_network_numerics(tmp_path):
    bundle = init_bundle("ndn", seed=11, hidden_sizes=(8,))
    rng = np.random.default_rng(12)
    x = rng.normal(size=(16, 7))
    y = rng.normal(size=16)

    def loss_value():
        pred, _ = forward(bundle, x, training=True)
        return float(np.mean((pred - y) ** 2))

    pred, caches = forward(bundle, x, training=True)
    grads = backward(bundle, caches, 2.0 * (pred - y) / pred.size)
    params = trainable_params(bundle)
    pairs = [(arr, grad, idx) for arr, grad in zip(params, grads)
             for idx in range(arr.size)]
    h = 1e-6
    worst = 0.0
    for draw in rng.choice(len(pairs), size=100, replace=True):
        arr, grad, idx = pairs[draw]
        flat, flat_grad = arr.reshape(-1), grad.reshape(-1)
        old = flat[idx]
        flat[idx] = old + h
        up = loss_value()
        flat[idx] = old - h
        down = loss_value()
        flat[idx] = old
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(flat_grad[idx]))
        if denom >= 1e-7:
            worst = max(worst, abs(flat_grad[idx] - fd) / denom)

    trained = init_bundle("georesnn", seed=13)
    save_model(trained, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    p = SabrPoint(K=1.1, **WIDE)
    round_trip_exact = predict_vol(trained, p) == predict_vol(loaded, p)

    ok = worst <= 1e-5 and round_trip_exact
    _gate("8", ok, f"worst gradient rel err {worst:.2e}, serialization exact: {round_trip_exact}")
    assert worst <= 1e-5
    assert round_trip_exact


@pytest.fixture(scope="module")
def desk_experiment():
    """Pinned desk-scale run: 2000 configurations at 2e4 paths, all four
    architectures trained 30 epochs with identical seeds."""
    start = time.perf_counter()
    cfg = McConfig(paths=20_000, base_seed=42)
    dataset = build_dataset(2000, cfg, seed=42, workers=2)
    filter_outliers(dataset)
    split_dataset(dataset, seed=42)
    train_rows = dataset.split_samples("train")
    val_rows = dataset.split_samples("val")
    test_rows = dataset.split_samples("test")
    reference = np.array([s.sigma_mc for s in test_rows])
    results = {}
    for arch in ("ndn", "geonn", "resnn", "georesnn"):
        bundle = init_bundle(arch, seed=0)
        bundle, _ = train(bundle, train_rows, val_rows, TrainConfig(epochs=30, seed=0))
        predictions = predict_from_rows(bundle, test_rows)
        results[arch] = {
            "bundle": bundle,
            "r2": r2(predictions, reference),
            "min_prediction": float(np.min(predictions)),
        }
    elapsed = time.perf_counter() - start
    note("criterion 9 experiment R^2: "
         + ", ".join(f"{a}={results[a]['r2']:.5f}" for a in results)
         + f" ({elapsed / 60:.1f} min)")
    return results, test_rows, elapsed


def test_criterion_9_runtime(desk_experiment):
    _, _, elapsed = desk_experiment
    _gate("9-runtime", elapsed <= 3600.0, f"{elapsed / 60:.1f} min")
    assert elapsed <= 3600.0


def test_criterion_9a_georesnn_is_best(desk_experiment):
    """Documented red: at desk scale the residual architectures are
    statistically tied (R^2 differences ~1e-4 across training seeds), so
    no strict maximum holds."""
    results, _, _ = desk_experiment
    scores = {arch: results[arch]["r2"] for arch in results}
    best = max(scores, key=scores.get)
    _gate("9a", best == "georesnn", f"max is {best} ({scores[best]:.5f}), "
          f"georesnn {scores['georesnn']:.5f}")
    assert best == "georesnn", scores


def test_criterion_9b_margin_over_direct_network(desk_experiment):
    """Documented red: a correctly trained direct network reaches
    R^2 ~ 0.99 here (the published 0.73 baseline is not reproducible), so
    no 0.05 separation can exist."""
    results, _, _ = desk_experiment
    gap = results["georesnn"]["r2"] - results["ndn"]["r2"]
    _gate("9b", gap >= 0.05, f"gap {gap:.4f} vs required 0.05; "
          f"ndn already at {results['ndn']['r2']:.4f}")
    assert gap >= 0.05


def test_criterion_9c_positivity(desk_experiment):
    results, _, _ = desk_experiment
    lowest = results["georesnn"]["min_prediction"]
    _gate("9c", lowest > 0.0, f"lowest georesnn test prediction {lowest:.4f}")
    assert lowest > 0.0


def test_criterion_9d_zeroed_residual_reproduces_formula(desk_experiment):
    _, test_rows, _ = desk_experiment
    for arch in ("resnn", "georesnn"):
        bundle = init_bundle(arch, seed=0)
        for layer in bundle.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        predictions = predict_from_rows(bundle, test_rows[:500])
        baseline = np.array([s.sigma_hagan for s in test_rows[:500]])
        assert np.array_equal(predictions, baseline)
    _gate("9d", True, "zero-weight residual models reproduce the closed form exactly")


def test_criterion_10_scheduler_and_best_weights():
    from sabrkit.net import PlateauScheduler

    sched = PlateauScheduler(lr=4e-3)
    lrs = [sched.step(1.0) for _ in range(12)]
    halves_correct = (lrs[4] == 4e-3 and lrs[5] == 2e-3 and lrs[9] == 2e-3
                      and lrs[10] == 1e-3 and lrs[11] == 1e-3)

    # Deterministic training: rerunning for exactly best_epoch epochs must
    # land on the returned weights.
    rng = np.random.default_rng(10)
    from sabrkit.datagen import Sample

    rows = []
    for i in range(400):
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        K = float(strike_grid(F0, alpha, T)[int(rng.integers(0, 11))])
        p = SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)
        base = hagan_vol(p)
        rows.append(Sample(point=p, sigma_hagan=base,
                           sigma_mc=base * (1 + 0.05 * math.sin(9 * K / F0)),
                           feats=features(p), grid_index=0.0, config_index=i,
                           valid=True))
    full = init_bundle("resnn", seed=3)
    full, history = train(full, rows[:300], rows[300:], TrainConfig(epochs=8, seed=3))
    best_epoch = full.manifest["best_epoch"]
    assert best_epoch == min(history, key=lambda r: r.val_loss).epoch
    partial = init_bundle("resnn", seed=3)
    partial, _ = train(partial, rows[:300], rows[300:],
                       TrainConfig(epochs=best_epoch, seed=3))
    weights_match = all(
        np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        for a, b in zip(full.layers, partial.layers)
    )
    ok = halves_correct and weights_match
    _gate("10", ok, f"lr halves at epochs 6 and 11: {halves_correct}, "
                    f"best-epoch weights match: {weights_match}")
    assert halves_correct
    assert weights_match


def test_criterion_11_latency():
    bundle = init_bundle("georesnn", seed=0)
    stats = latency_bench(bundle, n_points=10_000, mc_cfg=McConfig(paths=100_000),
                          warmup=100)
    ok = stats.median_us <= 1000.0 and stats.speedup_vs_mc >= 1000.0
    _gate("11", ok, f"median {stats.median_us:.0f}us, p99 {stats.p99_us:.0f}us, "
                    f"speedup {stats.speedup_vs_mc:.0f}x")
    assert stats.median_us <= 1000.0
    assert stats.speedup_vs_mc >= 1000.0


def test_criterion_12_determinism(tmp_path):
    from sabrkit.cli import main

    for sub in ("a", "b"):
        code = main(["generate", "--configs", "25", "--paths", "2000",
                     "--seed", "42", "--out", str(tmp_path / sub)])
        assert code == 0
    csv_identical = ((tmp_path / "a" / "dataset.csv").read_bytes()
                     == (tmp_path / "b" / "dataset.csv").read_bytes())

    for sub in ("a", "b"):
        code = main(["train", "--dataset", str(tmp_path / "a" / "dataset.csv"),
                     "--arch", "georesnn", "--epochs", "2", "--seed", "7",
                     "--out", str(tmp_path / sub / "model")])
        assert code == 0
    model_identical = ((tmp_path / "a" / "model" / "model_georesnn.json").read_bytes()
                       == (tmp_path / "b" / "model" / "model_georesnn.json").read_bytes())
    ok = csv_identical and model_identical
    _gate("12", ok, f"dataset bytes identical: {csv_identical}, "
                    f"model bytes identical: {model_identical}")
    assert csv_identical
    assert model_identical
