import math

import numpy as np
import pytest

from sabrkit import evaluation
from sabrkit.datagen import Sample
from sabrkit.errors import ConfigError, NonFinite
from sabrkit.evaluation import (
    default_stress_scenarios,
    evaluate_model,
    latency_bench,
    r2,
    rmse_rel,
    stress_suite,
)
from sabrkit.geometry import features
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.mc import McConfig
from sabrkit.net import init_bundle

from bundles import zero_output


def smile_rows(n_configs=6, mc_equals_hagan=True, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    grid = [i * 0.5 for i in range(-5, 6)]
    for c in range(n_configs):
        T = rng.uniform(0.25, 2.0)
        F0, alpha = rng.uniform(0.02, 0.05), rng.uniform(0.02, 0.05)
        beta, rho, nu = rng.uniform(0.3, 0.7), rng.uniform(-0.5, 0.0), rng.uniform(0.2, 0.5)
        for n in grid:
            K = F0 * math.exp(n * alpha * math.sqrt(T))
            point = SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)
            base = hagan_vol(point)
            mc = base if mc_equals_hagan else base * (1 + 0.01 * n)
            rows.append(Sample(point=point, sigma_hagan=base, sigma_mc=mc,
                               feats=features(point), grid_index=n,
                               config_index=c, valid=True, split="test"))
    return rows


class TestR2:
    def test_perfect_prediction(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        assert r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert r2([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5, abs=1e-15)

    def test_shift_invariance(self):
        pred = np.array([1.1, 1.9, 3.2, 4.4])
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2(pred + 7.0, ref + 7.0) == pytest.approx(r2(pred, ref), abs=1e-12)

    def test_degenerate_reference(self):
        with pytest.raises(ConfigError, match="reference variance below 1e-18"):
            r2([1.0, 2.0], [3.0, 3.0])

    def test_rmse_rel(self):
        assert rmse_rel([1.1, 2.2], [1.0, 2.0]) == pytest.approx(0.1, rel=1e-12)


class TestRegions:
    def test_perfect_model_scores_one_everywhere(self):
        rows = smile_rows(mc_equals_hagan=True)
        bundle = zero_output(init_bundle("georesnn", seed=1))
        metrics = evaluate_model(bundle, rows).regions
        assert set(metrics) == {"itm", "atm", "otm"}
        for m in metrics.values():
            assert m.r2 == pytest.approx(1.0, abs=1e-12)
            assert m.rmse_rel <= 1e-12

    def test_counts_partition_rows(self):
        rows = smile_rows(n_configs=4)
        bundle = zero_output(init_bundle("resnn", seed=2))
        metrics = evaluate_model(bundle, rows).regions
        assert metrics["itm"].count == 4 * 5
        assert metrics["atm"].count == 4
        assert metrics["otm"].count == 4 * 5

    def test_empty_region_raises(self):
        rows = [s for s in smile_rows() if s.grid_index == 0.0]
        bundle = zero_output(init_bundle("resnn", seed=3))
        with pytest.raises(ConfigError, match="region 'itm' has no test rows"):
            evaluate_model(bundle, rows)

    def test_evaluate_model_summary(self):
        rows = smile_rows(mc_equals_hagan=False)
        bundle = zero_output(init_bundle("georesnn", seed=5))
        metrics = evaluate_model(bundle, rows)
        assert metrics.arch == "georesnn"
        assert metrics.test_rows == len(rows)
        assert metrics.r2_global < 1.0


class TestStress:
    def test_one_record_per_scenario(self):
        bundle = zero_output(init_bundle("georesnn", seed=6))
        [records] = stress_suite([bundle], McConfig(paths=2000))
        scenarios = default_stress_scenarios()
        assert len(records) == len(scenarios) == 11
        assert [r.scenario_id for r in records] == [s.scenario_id for s in scenarios]
        for r, sc in zip(records, scenarios):
            assert r.error is None
            assert r.T == sc.T
            assert len(r.sigma_model) == len(r.strikes)

    def test_flat_lognormal_scenario_is_exact(self):
        bundle = zero_output(init_bundle("georesnn", seed=7))
        [records] = stress_suite([bundle], McConfig(paths=2000))
        sanity = next(r for r in records if r.scenario_id == "lognormal_flat_sanity")
        # control variate cancels every path: reference equals alpha exactly
        for mc in sanity.sigma_mc:
            assert abs(mc - 0.2) <= 1e-9
        # error vs the Monte Carlo reference equals error vs the exact flat
        # vol up to the inversion tolerance
        vs_alpha = max(abs(m - 0.2) for m in sanity.sigma_model)
        assert abs(sanity.max_abs_err_model - vs_alpha) <= 1e-9

    def test_failed_scenarios_keep_their_T(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NonFinite("no reference")

        monkeypatch.setattr(evaluation, "reference_smile", broken)
        suites = stress_suite([init_bundle("ndn", seed=6), init_bundle("resnn", seed=6)],
                              McConfig(paths=2000))
        expected = [(s.T, "no reference", [], [], [], len(s.strikes))
                    for s in default_stress_scenarios()]
        for records in suites:
            assert [(r.T, r.error, r.sigma_mc, r.sigma_hagan, r.sigma_model, r.failed_strikes)
                    for r in records] == expected

    def test_failing_closed_form_is_recorded(self, monkeypatch):
        # F0*K underflows at a tiny forward: the closed form fails on a
        # valid point after the reference is simulated, and every model's
        # record holds the error in place of its vols.
        tiny = evaluation.StressScenario("tiny_forward", 1.0, 1e-170, 0.2, 0.0, -0.8, 1.2,
                                         (1e-170, 2e-170))
        monkeypatch.setattr(evaluation, "default_stress_scenarios", lambda: [tiny])
        suites = stress_suite([init_bundle("ndn", seed=6), init_bundle("resnn", seed=6)],
                              McConfig(paths=1000))
        for [record] in suites:
            assert (record.scenario_id, record.error) == ("tiny_forward",
                                                          "closed form fails: vol nan")
            assert (record.sigma_mc, record.sigma_hagan, record.sigma_model) == ([], [], [])
            assert record.failed_strikes == 2

    def test_reference_is_shared_and_a_failed_prediction_stays_in_its_model(self, monkeypatch):
        calls = []
        reference_smile = evaluation.reference_smile
        monkeypatch.setattr(evaluation, "reference_smile",
                            lambda *args: calls.append(args) or reference_smile(*args))
        good, bad = zero_output(init_bundle("georesnn", seed=6)), init_bundle("ndn", seed=6)
        predict_vols = evaluation.predict_vols

        def predict(bundle, points):
            if bundle is bad and points[0].T == 1.0:
                raise NonFinite("no prediction")
            return predict_vols(bundle, points)

        monkeypatch.setattr(evaluation, "predict_vols", predict)
        ok, failed = stress_suite([good, bad], McConfig(paths=2000))
        assert [args[-1] for args in calls] == list(range(11))
        failing = [s.T == 1.0 for s in default_stress_scenarios()]
        assert sum(failing) == 3
        for a, b, fails in zip(ok, failed, failing):
            assert a.error is None and a.sigma_mc and a.sigma_model
            if fails:
                assert (b.error, b.sigma_mc, b.sigma_hagan, b.sigma_model) == (
                    "no prediction", [], [], [])
            else:
                assert b.error is None
                assert (b.sigma_mc, b.sigma_hagan) == (a.sigma_mc, a.sigma_hagan)

    def test_wide_smile_uses_16_strikes(self):
        scenarios = default_stress_scenarios()
        assert len(scenarios[0].strikes) == 16
        assert all(len(s.strikes) == 11 for s in scenarios[1:])


class TestSweep:
    def test_slice_shapes(self):
        bundle = zero_output(init_bundle("georesnn", seed=8))
        [records] = stress_suite([bundle], McConfig(paths=2000))
        # The maturity slices follow the six stressed smiles.
        slices = records[6:]
        assert tuple(s.T for s in slices) == evaluation.SWEEP_MATURITIES
        assert [s.scenario_id for s in slices] == ["T0.25", "T0.5", "T1", "T2", "T5"]
        for s in slices:
            assert s.error is None
            assert len(s.strikes) == 11
            assert all(v > 0 and math.isfinite(v) for v in s.sigma_model)

    def test_failed_slices_keep_their_T(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NonFinite("no reference")

        monkeypatch.setattr(evaluation, "reference_smile", broken)
        [records] = stress_suite([init_bundle("ndn", seed=8)], McConfig(paths=2000))
        slices = records[6:]
        assert [(s.T, s.error, s.sigma_mc, s.failed_strikes) for s in slices] == [
            (T, "no reference", [], 11) for T in evaluation.SWEEP_MATURITIES]


class TestLatency:
    def test_smoke(self):
        bundle = zero_output(init_bundle("georesnn", seed=9))
        stats = latency_bench(bundle, n_points=300, mc_cfg=McConfig(paths=2000))
        assert stats.n_points == 200
        assert stats.median_us > 0
        assert stats.p99_us >= stats.median_us
        assert stats.speedup_vs_mc > 0
        assert stats.batch_points_per_s > 0

    def test_timed_strikes_span_the_grid(self, monkeypatch):
        # A fixed mid-grid index would put every timed point at K == F0, so
        # every one would sit at z = 0 and none would time the smile's wings.
        timed = []
        monkeypatch.setattr(evaluation, "predict_vol", lambda bundle, p: timed.append(p))
        latency_bench(init_bundle("ndn", seed=9), n_points=440,
                      mc_cfg=McConfig(paths=2000))
        assert len(timed) == 440
        assert sum(p.K == p.F0 for p in timed) <= 0.2 * len(timed)

    def test_warmup_must_leave_samples(self):
        bundle = init_bundle("ndn", seed=10)
        with pytest.raises(ValueError):
            latency_bench(bundle, n_points=50, mc_cfg=McConfig(paths=2000))
