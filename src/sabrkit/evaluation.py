"""Model diagnostics: global and regional accuracy against Monte Carlo
references, a stress suite and an inference benchmark.

Regions are keyed off the dataset's strike-grid index (ITM n < 0, ATM
n = 0, OTM n > 0), because generated strikes are maturity scaled.

The stress suite is one list of :class:`StressScenario`: six stressed
smiles, then five maturity slices at fixed parameters (ids ``T<T>``).
Each smile's Monte Carlo reference and Hagan vols are computed once and
shared by every model's :class:`StressRecord`. A scenario that fails
keeps the error in its record, with empty vol lists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datagen import GRID_INDICES, reference_smile, sample_config, strike_grid
from .errors import ConfigError, SabrkitError
from .hagan import SabrPoint, hagan_vol
from .mc import McConfig
from .net import ModelBundle, predict_from_rows, predict_vol, predict_vols

__all__ = [
    "LatencyStats",
    "ModelMetrics",
    "RegionMetrics",
    "StressRecord",
    "StressScenario",
    "default_stress_scenarios",
    "evaluate_model",
    "latency_bench",
    "r2",
    "rmse_rel",
    "stress_suite",
]

REGION_NAMES = ("itm", "atm", "otm")

# Leading single-point calls that latency_bench times but leaves out of its
# statistics.
LATENCY_WARMUP = 100

# The maturity slices' smile parameters and maturities.
SWEEP_PARAMS = dict(F0=0.03, alpha=0.035, beta=0.5, rho=-0.25, nu=0.35)
SWEEP_MATURITIES = (0.25, 0.5, 1.0, 2.0, 5.0)


def r2(predicted, reference) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot about the reference mean."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.size == 0:
        raise ValueError("predicted and reference must be equal-length, non-empty")
    ss_tot = float(np.sum((reference - reference.mean()) ** 2))
    if ss_tot / reference.size < 1e-18:
        raise ConfigError("reference variance below 1e-18")
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


def _regions(predictions, reference, test_samples) -> dict[str, RegionMetrics]:
    grid = np.array([s.grid_index for s in test_samples])
    out: dict[str, RegionMetrics] = {}
    for name, mask in zip(REGION_NAMES, (grid < 0.0, grid == 0.0, grid > 0.0)):
        if not mask.any():
            raise ConfigError(f"region {name!r} has no test rows")
        out[name] = RegionMetrics(
            r2=r2(predictions[mask], reference[mask]),
            rmse_rel=rmse_rel(predictions[mask], reference[mask]),
            count=int(mask.sum()),
        )
    return out


def evaluate_model(bundle: ModelBundle, test_samples) -> ModelMetrics:
    """Global and per-region metrics for one trained bundle on a test split;
    raises ConfigError when a strike region has no rows."""
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


def _on_grid(scenario_id, T, F0, alpha, beta, rho, nu) -> StressScenario:
    """A scenario on the standard maturity-scaled 11-strike grid."""
    return StressScenario(scenario_id, T, F0, alpha, beta, rho, nu,
                          tuple(float(k) for k in strike_grid(F0, alpha, T)))


def default_stress_scenarios() -> list[StressScenario]:
    """Fixed eleven-scenario list: six smiles spanning the documented
    stress axes, then one maturity slice per ``SWEEP_MATURITIES`` at
    ``SWEEP_PARAMS``, ids ``T<T>``.

    Bucket medians are midpoints of the sampling ranges; the wide-smile
    scenario uses a flat 16-strike grid from half to twice the forward,
    the others the standard maturity-scaled 11-strike grid.
    """
    return [
        StressScenario("wide_smile_high_vovol", 1.0, 1.0, 0.2, 0.5, -0.8, 1.2,
                       tuple(0.5 + 0.1 * i for i in range(16))),
        _on_grid("nu_above_bucket", 2.5, 0.0375, 0.04, 0.6, -0.3, 0.75),
        _on_grid("extreme_rho_long_tenor", 4.5, 0.045, 0.05, 0.75, -0.9, 0.5),
        _on_grid("beta_zero_short_tenor", 17.5 / 365.0, 0.0175, 0.0125, 0.0, 0.0, 0.125),
        _on_grid("lognormal_flat_sanity", 1.0, 1.0, 0.2, 1.0, 0.0, 0.0),
        _on_grid("alpha_above_bucket", 0.875, 0.03, 0.08, 0.5, -0.2, 0.3),
        *(_on_grid(f"T{T:g}", T, **SWEEP_PARAMS) for T in SWEEP_MATURITIES),
    ]


@dataclass
class StressRecord:
    scenario_id: str
    T: float
    strikes: list[float]
    sigma_mc: list[float]
    sigma_hagan: list[float]
    sigma_model: list[float]
    max_abs_err_model: float
    max_abs_err_hagan: float
    failed_strikes: int
    error: str | None = None


def _record(sc, mc_vols, hagan_vols, model_vols, error) -> StressRecord:
    errs_model = [abs(m - r) for m, r in zip(model_vols, mc_vols) if math.isfinite(r)]
    errs_hagan = [abs(h - r) for h, r in zip(hagan_vols, mc_vols) if math.isfinite(r)]
    return StressRecord(
        scenario_id=sc.scenario_id,
        T=sc.T,
        strikes=list(sc.strikes),
        sigma_mc=mc_vols,
        sigma_hagan=hagan_vols,
        sigma_model=model_vols,
        max_abs_err_model=max(errs_model, default=float("nan")),
        max_abs_err_hagan=max(errs_hagan, default=float("nan")),
        failed_strikes=len(sc.strikes) - len(errs_model),
        error=error,
    )


def stress_suite(bundles: list[ModelBundle], mc_cfg: McConfig) -> list[list[StressRecord]]:
    """Each bundle against fresh Monte Carlo on every one of
    :func:`default_stress_scenarios`, scenario i at config index i; one
    record list per bundle, in order.

    Each smile's reference and Hagan vols are computed once for all
    bundles. A :class:`SabrkitError` is recorded with empty vol lists, not
    raised, so one pathological regime cannot abort the run: a failing
    reference or closed form in every bundle's record, a failing
    prediction in that bundle's alone.
    """
    suites = [[] for _ in bundles]
    for idx, sc in enumerate(default_stress_scenarios()):
        shared = None
        try:
            mc_vols = reference_smile(sc.T, sc.F0, sc.alpha, sc.beta, sc.rho, sc.nu,
                                      sc.strikes, mc_cfg, idx)[0].tolist()
            points = [SabrPoint(T=sc.T, F0=sc.F0, K=k, alpha=sc.alpha, beta=sc.beta,
                                rho=sc.rho, nu=sc.nu) for k in sc.strikes]
            hagan_vols = [hagan_vol(point) for point in points]
        except SabrkitError as exc:
            shared = str(exc)
        for bundle, records in zip(bundles, suites):
            vols, error = ([], [], []), shared
            if shared is None:
                try:
                    vols = (list(mc_vols), list(hagan_vols),
                            predict_vols(bundle, points).tolist())
                except SabrkitError as exc:
                    error = str(exc)
            records.append(_record(sc, *vols, error))
    return suites


@dataclass
class LatencyStats:
    median_us: float
    p99_us: float
    n_points: int
    mc_us_per_point: float
    speedup_vs_mc: float
    batch_points_per_s: float


def latency_bench(bundle: ModelBundle, mc_cfg: McConfig, n_points: int = 10_000,
                  seed: int = 0) -> LatencyStats:
    """Per-call latency of single-point prediction, speed-up against one
    Monte Carlo reference vol (:func:`~sabrkit.datagen.reference_smile` at
    one strike) at the reference path budget, and the throughput of one
    :func:`~sabrkit.net.predict_vols` call on all the points.

    The strike's grid index is drawn uniformly, so one point in eleven
    sits at the money; the closed form and the features take the same
    formula there as at every other strike. The first ``LATENCY_WARMUP``
    calls are excluded from the statistics.
    """
    if n_points <= LATENCY_WARMUP:
        raise ValueError("n_points must exceed the warmup count")
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
    kept = timings[LATENCY_WARMUP:] * 1e6

    t0 = time.perf_counter()
    predict_vols(bundle, points)
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference_smile(1.0, 1.0, 0.2, 0.5, -0.8, 1.2, [1.0], mc_cfg)
    mc_us = (time.perf_counter() - t0) * 1e6

    median_us = float(np.median(kept))
    return LatencyStats(
        median_us=median_us,
        p99_us=float(np.percentile(kept, 99)),
        n_points=n_points - LATENCY_WARMUP,
        mc_us_per_point=mc_us,
        speedup_vs_mc=mc_us / median_us,
        batch_points_per_s=n_points / batch_s,
    )
