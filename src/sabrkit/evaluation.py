"""Model diagnostics: global and regional accuracy against Monte Carlo
references, stress scenarios, maturity sweeps and an inference benchmark.

Regions are keyed off the dataset's strike-grid index (ITM n < 0, ATM
n = 0, OTM n > 0), because generated strikes are maturity scaled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datagen import GRID_INDICES, sample_config, strike_grid
from .errors import DegenerateReference, EmptyRegion, SabrkitError
from .hagan import SabrPoint, hagan_vol
from .mc import McConfig, cv_price, implied_vol_from_estimate, price_from_terminals, simulate_terminals
from .net import ModelBundle, predict_from_rows, predict_vol, predict_vols

__all__ = [
    "LatencyStats",
    "ModelMetrics",
    "RegionMetrics",
    "SliceRecord",
    "StressRecord",
    "StressScenario",
    "default_stress_scenarios",
    "evaluate_model",
    "latency_bench",
    "maturity_sweep",
    "r2",
    "rmse_rel",
    "stress_suite",
]

REGION_NAMES = ("itm", "atm", "otm")


def r2(predicted, reference) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot about the reference mean."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.size == 0:
        raise ValueError("predicted and reference must be equal-length, non-empty")
    ss_tot = float(np.sum((reference - reference.mean()) ** 2))
    if ss_tot / reference.size < 1e-18:
        raise DegenerateReference("reference variance below 1e-18")
    ss_res = float(np.sum((predicted - reference) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse_rel(predicted, reference) -> float:
    """Root mean squared pointwise relative error."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.sqrt(np.mean(((predicted - reference) / reference) ** 2)))


@dataclass
class RegionMetrics:
    r2: float
    rmse_rel: float
    count: int


@dataclass
class ModelMetrics:
    arch: str
    r2_global: float
    rmse_rel: float
    regions: dict[str, RegionMetrics]
    val_loss_final: float | None
    test_rows: int

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "r2_global": self.r2_global,
            "rmse_rel": self.rmse_rel,
            "val_loss_final": self.val_loss_final,
            "test_rows": self.test_rows,
            "regions": {
                name: {"r2": m.r2, "rmse_rel": m.rmse_rel, "count": m.count}
                for name, m in self.regions.items()
            },
        }


def _region_of(sample) -> str:
    if sample.grid_index < 0.0:
        return "itm"
    if sample.grid_index > 0.0:
        return "otm"
    return "atm"


def _regions(predictions, reference, test_samples) -> dict[str, RegionMetrics]:
    keys = np.array([_region_of(s) for s in test_samples])
    out: dict[str, RegionMetrics] = {}
    for name in REGION_NAMES:
        mask = keys == name
        if not mask.any():
            raise EmptyRegion(f"region {name!r} has no test rows")
        out[name] = RegionMetrics(
            r2=r2(predictions[mask], reference[mask]),
            rmse_rel=rmse_rel(predictions[mask], reference[mask]),
            count=int(mask.sum()),
        )
    return out


def evaluate_model(bundle: ModelBundle, test_samples) -> ModelMetrics:
    """Global and per-region metrics for one trained bundle on a test split;
    raises EmptyRegion when a strike region has no rows."""
    predictions = predict_from_rows(bundle, test_samples)
    reference = np.array([s.sigma_mc for s in test_samples])
    return ModelMetrics(
        arch=bundle.arch,
        r2_global=r2(predictions, reference),
        rmse_rel=rmse_rel(predictions, reference),
        regions=_regions(predictions, reference, test_samples),
        val_loss_final=bundle.manifest.get("best_val_loss"),
        test_rows=len(test_samples),
    )


@dataclass(frozen=True)
class StressScenario:
    scenario_id: str
    T: float
    F0: float
    alpha: float
    beta: float
    rho: float
    nu: float
    strikes: tuple[float, ...]


def default_stress_scenarios() -> list[StressScenario]:
    """Fixed six-scenario list spanning the documented stress axes.

    Bucket medians are midpoints of the sampling ranges; the wide-smile
    scenario uses a flat 16-strike grid from half to twice the forward,
    the others the standard maturity-scaled 11-strike grid.
    """
    def grid(F0, alpha, T):
        return tuple(float(k) for k in strike_grid(F0, alpha, T))

    scenarios = [
        StressScenario("wide_smile_high_vovol", 1.0, 1.0, 0.2, 0.5, -0.8, 1.2,
                       tuple(0.5 + 0.1 * i for i in range(16))),
        StressScenario("nu_above_bucket", 2.5, 0.0375, 0.04, 0.6, -0.3, 0.75,
                       grid(0.0375, 0.04, 2.5)),
        StressScenario("extreme_rho_long_tenor", 4.5, 0.045, 0.05, 0.75, -0.9, 0.5,
                       grid(0.045, 0.05, 4.5)),
        StressScenario("beta_zero_short_tenor", 17.5 / 365.0, 0.0175, 0.0125, 0.0, 0.0, 0.125,
                       grid(0.0175, 0.0125, 17.5 / 365.0)),
        StressScenario("lognormal_flat_sanity", 1.0, 1.0, 0.2, 1.0, 0.0, 0.0,
                       grid(1.0, 0.2, 1.0)),
        StressScenario("alpha_above_bucket", 0.875, 0.03, 0.08, 0.5, -0.2, 0.3,
                       grid(0.03, 0.08, 0.875)),
    ]
    return scenarios


@dataclass
class StressRecord:
    scenario_id: str
    strikes: list[float]
    sigma_mc: list[float]
    sigma_hagan: list[float]
    sigma_model: list[float]
    max_abs_err_model: float
    max_abs_err_hagan: float
    failed_strikes: int
    error: str | None = None


def _smile_on_strikes(bundle, mc_cfg, T, F0, alpha, beta, rho, nu, strikes, config_index=0):
    terminals = simulate_terminals(T, F0, alpha, beta, rho, nu, mc_cfg, config_index)
    mc_vols, hagan_vols, model_vols = [], [], []
    failed = 0
    points = [SabrPoint(T=T, F0=F0, K=k, alpha=alpha, beta=beta, rho=rho, nu=nu)
              for k in strikes]
    for point, model_vol in zip(points, predict_vols(bundle, points)):
        try:
            estimate = price_from_terminals(terminals, point.K)
            mc_vol = implied_vol_from_estimate(estimate, T, F0, point.K).sigma
        except SabrkitError:
            mc_vol = float("nan")
            failed += 1
        mc_vols.append(mc_vol)
        hagan_vols.append(hagan_vol(point))
        model_vols.append(float(model_vol))
    return mc_vols, hagan_vols, model_vols, failed


def stress_suite(bundle: ModelBundle, mc_cfg: McConfig,
                 scenarios: list[StressScenario] | None = None) -> list[StressRecord]:
    """Evaluate the bundle on fresh Monte Carlo ground truth per scenario.

    Scenario failures are recorded, not raised, so one pathological regime
    cannot abort the suite.
    """
    if scenarios is None:
        scenarios = default_stress_scenarios()
    records = []
    for idx, sc in enumerate(scenarios):
        try:
            mc_vols, hagan_vols, model_vols, failed = _smile_on_strikes(
                bundle, mc_cfg, sc.T, sc.F0, sc.alpha, sc.beta, sc.rho, sc.nu,
                sc.strikes, config_index=idx,
            )
            pairs_model = [abs(m - r) for m, r in zip(model_vols, mc_vols) if math.isfinite(r)]
            pairs_hagan = [abs(h - r) for h, r in zip(hagan_vols, mc_vols) if math.isfinite(r)]
            records.append(StressRecord(
                scenario_id=sc.scenario_id,
                strikes=list(sc.strikes),
                sigma_mc=mc_vols,
                sigma_hagan=hagan_vols,
                sigma_model=model_vols,
                max_abs_err_model=max(pairs_model) if pairs_model else float("nan"),
                max_abs_err_hagan=max(pairs_hagan) if pairs_hagan else float("nan"),
                failed_strikes=failed,
            ))
        except SabrkitError as exc:
            records.append(StressRecord(
                scenario_id=sc.scenario_id, strikes=list(sc.strikes),
                sigma_mc=[], sigma_hagan=[], sigma_model=[],
                max_abs_err_model=float("nan"), max_abs_err_hagan=float("nan"),
                failed_strikes=len(sc.strikes), error=str(exc),
            ))
    return records


@dataclass
class SliceRecord:
    T: float
    strikes: list[float]
    grid_indices: list[float]
    sigma_mc: list[float]
    sigma_hagan: list[float]
    sigma_model: list[float]


def maturity_sweep(bundle: ModelBundle, params: dict, t_grid, mc_cfg: McConfig) -> list[SliceRecord]:
    """One smile slice per maturity on the standard 11-strike grid.

    ``params`` holds F0, alpha, beta, rho, nu; the maturity is swept.
    """
    records = []
    for idx, T in enumerate(t_grid):
        strikes = [float(k) for k in strike_grid(params["F0"], params["alpha"], T)]
        mc_vols, hagan_vols, model_vols, _ = _smile_on_strikes(
            bundle, mc_cfg, T, params["F0"], params["alpha"], params["beta"],
            params["rho"], params["nu"], strikes, config_index=1000 + idx,
        )
        records.append(SliceRecord(
            T=float(T), strikes=strikes, grid_indices=list(GRID_INDICES),
            sigma_mc=mc_vols, sigma_hagan=hagan_vols, sigma_model=model_vols,
        ))
    return records


@dataclass
class LatencyStats:
    median_us: float
    p99_us: float
    n_points: int
    mc_us_per_point: float
    speedup_vs_mc: float


def latency_bench(bundle: ModelBundle, n_points: int = 10_000,
                  mc_cfg: McConfig | None = None, warmup: int = 100,
                  seed: int = 0) -> LatencyStats:
    """Per-call latency of single-point prediction, and speed-up against one
    Monte Carlo pricing at the reference path budget.

    The strike's grid index is drawn uniformly, so one point in eleven
    takes the at-the-money shortcut. The first ``warmup`` calls are
    excluded from the statistics.
    """
    if n_points <= warmup:
        raise ValueError("n_points must exceed the warmup count")
    if mc_cfg is None:
        mc_cfg = McConfig()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    points = []
    for _ in range(n_points):
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        K = float(strike_grid(F0, alpha, T)[rng.integers(0, len(GRID_INDICES))])
        points.append(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu))
    timings = np.empty(n_points)
    for i, p in enumerate(points):
        t0 = time.perf_counter()
        predict_vol(bundle, p)
        timings[i] = time.perf_counter() - t0
    kept = timings[warmup:] * 1e6

    bench_point = SabrPoint(T=1.0, F0=1.0, K=1.0, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
    t0 = time.perf_counter()
    cv_price(bench_point, mc_cfg)
    mc_us = (time.perf_counter() - t0) * 1e6

    median_us = float(np.median(kept))
    return LatencyStats(
        median_us=median_us,
        p99_us=float(np.percentile(kept, 99)),
        n_points=n_points - warmup,
        mc_us_per_point=mc_us,
        speedup_vs_mc=mc_us / median_us,
    )
