"""Synthetic supervised dataset: bucketed parameter sampling, strike grids,
Monte Carlo reference vols, outlier filtering, splitting and persistence.

Each configuration draws a maturity from a fixed tenor list, takes its
parameters uniformly from the ranges of the maturity's bucket, then prices
an 11-strike smile from a single set of simulated terminal values. Rows
whose reference vol cannot be computed (price outside the invertible
interval, closed form outside its validity domain) are kept in the file
but flagged invalid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, NegativeVol, NonFinite, NoConvergence, PriceOutOfBounds
from .geometry import GeomFeatures, features
from .hagan import HAGAN_BRACKET, SabrPoint, hagan_vol
from .mc import McConfig, implied_vol_from_estimate, price_from_terminals, simulate_terminals

__all__ = [
    "BUCKETS",
    "DEFAULT_MATS",
    "Dataset",
    "GRID_INDICES",
    "Sample",
    "TenorBucket",
    "build_dataset",
    "bucket_for_tenor",
    "file_sha256",
    "filter_outliers",
    "generate_dataset",
    "load_dataset",
    "sample_config",
    "save_dataset",
    "split_dataset",
    "strike_grid",
    "year_fraction",
]

SPLIT_WEIGHTS = (110, 55, 22)
SPLIT_NAMES = ("train", "val", "test")
_SPLIT_LABELS = ("none", *SPLIT_NAMES)

CSV_HEADER = [
    "T", "F0", "K", "alpha", "beta", "rho", "nu",
    "sigma_hagan", "sigma_mc", "q", "sigma_min", "d_h", "sigma0",
    "n", "split", "valid",
]

GRID_INDICES = tuple(i * 0.5 for i in range(-5, 6))


def year_fraction(tenor: str) -> float:
    """Tenor label to year fraction: weeks as 7w/365, months as m/12, years as y."""
    unit = tenor[-1]
    count = int(tenor[:-1])
    if unit == "W":
        return 7.0 * count / 365.0
    if unit == "M":
        return count / 12.0
    if unit == "Y":
        return float(count)
    raise ConfigError(f"unknown tenor label {tenor!r}")


@dataclass(frozen=True)
class TenorBucket:
    """Maturity band with its own uniform sampling ranges."""

    name: str
    tenors: tuple[str, ...]
    f0_range: tuple[float, float]
    alpha_range: tuple[float, float]
    beta_range: tuple[float, float]
    rho_range: tuple[float, float]
    nu_range: tuple[float, float]


BUCKETS = (
    TenorBucket("1W_1M", ("1W", "2W", "3W", "4W"),
                (0.005, 0.03), (0.005, 0.02), (0.00, 0.30), (-0.20, 0.20), (0.05, 0.20)),
    TenorBucket("2M_6M", ("2M", "3M", "4M", "5M", "6M"),
                (0.005, 0.04), (0.01, 0.03), (0.20, 0.50), (-0.30, 0.10), (0.10, 0.30)),
    TenorBucket("9M_1Y", ("9M", "1Y"),
                (0.01, 0.05), (0.02, 0.04), (0.30, 0.70), (-0.40, 0.00), (0.20, 0.40)),
    TenorBucket("2Y_3Y", ("2Y", "3Y"),
                (0.015, 0.06), (0.03, 0.05), (0.40, 0.80), (-0.50, -0.10), (0.30, 0.50)),
    TenorBucket("4Y_5Y", ("4Y", "5Y"),
                (0.02, 0.07), (0.04, 0.06), (0.50, 1.00), (-0.60, -0.20), (0.40, 0.60)),
)

DEFAULT_MATS = tuple(t for bucket in BUCKETS for t in bucket.tenors)

_BUCKET_BY_TENOR = {t: b for b in BUCKETS for t in b.tenors}


def bucket_for_tenor(tenor: str) -> TenorBucket:
    try:
        return _BUCKET_BY_TENOR[tenor]
    except KeyError:
        raise ConfigError(f"tenor {tenor!r} belongs to no bucket") from None


def sample_config(rng: np.random.Generator) -> tuple[float, float, float, float, float, float]:
    """Draw one (T, F0, alpha, beta, rho, nu) tuple.

    The maturity is uniform over the tenor list; the remaining parameters
    are uniform within the maturity's bucket, with beta projected to [0, 1]
    and rho to [-0.95, 0.95].
    """
    tenor = DEFAULT_MATS[rng.integers(0, len(DEFAULT_MATS))]
    bucket = bucket_for_tenor(tenor)
    f0 = rng.uniform(*bucket.f0_range)
    alpha = rng.uniform(*bucket.alpha_range)
    beta = min(max(rng.uniform(*bucket.beta_range), 0.0), 1.0)
    rho = min(max(rng.uniform(*bucket.rho_range), -0.95), 0.95)
    nu = rng.uniform(*bucket.nu_range)
    return year_fraction(tenor), f0, alpha, beta, rho, nu


def strike_grid(F0: float, alpha: float, T: float) -> np.ndarray:
    """11 strikes K = F0*exp(n*alpha*sqrt(T)), n in {-2.5, -2.0, ..., 2.5}.

    The middle strike is F0 exactly.
    """
    if F0 <= 0.0 or alpha <= 0.0 or T <= 0.0:
        raise ConfigError("F0, alpha and T must be positive")
    n = np.array(GRID_INDICES)
    return F0 * np.exp(n * alpha * math.sqrt(T))


@dataclass
class Sample:
    """One supervised row: configuration, targets, features, bookkeeping."""

    point: SabrPoint
    sigma_hagan: float
    sigma_mc: float
    feats: GeomFeatures
    grid_index: float
    split: str = "none"
    valid: bool = True
    config_index: int = 0


@dataclass
class Dataset:
    samples: list[Sample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def valid_samples(self) -> list[Sample]:
        return [s for s in self.samples if s.valid]

    def split_samples(self, split: str) -> list[Sample]:
        return [s for s in self.samples if s.valid and s.split == split]


_NAN_FEATS = GeomFeatures(q=float("nan"), sigma_min=float("nan"),
                          d_h=float("nan"), sigma0=float("nan"))


def _build_config_rows(args) -> list[Sample]:
    config_index, params, mc_cfg = args
    T, F0, alpha, beta, rho, nu = params
    terminals = simulate_terminals(T, F0, alpha, beta, rho, nu, mc_cfg, config_index)
    strikes = strike_grid(F0, alpha, T)
    rows = []
    for n, K in zip(GRID_INDICES, strikes):
        point = SabrPoint(T=T, F0=F0, K=float(K), alpha=alpha, beta=beta, rho=rho, nu=nu)
        valid = True
        sigma_h = float("nan")
        feats = _NAN_FEATS
        sigma_mc = float("nan")
        try:
            sigma_h = hagan_vol(point)
            feats = features(point)
        except (NegativeVol, DomainError):
            valid = False
        try:
            estimate = price_from_terminals(terminals, float(K))
            sigma_mc = implied_vol_from_estimate(estimate, T, F0, float(K)).sigma
        except (PriceOutOfBounds, NoConvergence, NonFinite):
            valid = False
        rows.append(Sample(point=point, sigma_hagan=sigma_h, sigma_mc=sigma_mc,
                           feats=feats, grid_index=float(n), valid=valid,
                           config_index=config_index))
    return rows


def build_dataset(
    num_configs: int,
    mc_cfg: McConfig,
    seed: int,
    workers: int = 1,
) -> Dataset:
    """Sample configurations and assemble the raw (unfiltered, unsplit) rows.

    Rows are ordered by (configuration index, grid index) whatever the
    worker count, and per-configuration streams depend only on the Monte
    Carlo base seed and the configuration index, so output is reproducible.
    """
    if num_configs < 1:
        raise ConfigError(f"num_configs must be >= 1, got {num_configs!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    jobs = [(i, sample_config(rng), mc_cfg) for i in range(num_configs)]

    dataset = Dataset()
    if workers <= 1:
        for job in jobs:
            dataset.samples.extend(_build_config_rows(job))
    else:
        chunk = max(1, num_configs // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(_build_config_rows, jobs, chunksize=chunk):
                dataset.samples.extend(rows)
    return dataset


def filter_outliers(dataset: Dataset) -> Dataset:
    """Flag rows whose reference vol sits more than ten standard deviations
    from the closed-form baseline.

    The threshold uses the residual standard deviation over the pre-filter
    valid population, computed once. A degenerate population (std below
    1e-12) disables the filter instead of removing everything.
    """
    valid = dataset.valid_samples()
    if not valid:
        raise ConfigError("dataset has no valid rows to filter")
    residuals = np.array([s.sigma_mc - s.sigma_hagan for s in valid])
    std = float(residuals.std())
    if std < 1e-12:
        return dataset
    threshold = 10.0 * std
    for s in valid:
        if abs(s.sigma_mc - s.sigma_hagan) > threshold:
            s.valid = False
            s.split = "none"
    return dataset


def _largest_remainder(total: int, weights: tuple[int, ...]) -> list[int]:
    wsum = sum(weights)
    quotas = [total * w / wsum for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    for i in sorted(range(len(weights)), key=lambda i: quotas[i] - counts[i], reverse=True):
        if sum(counts) == total:
            break
        counts[i] += 1
    return counts


def split_dataset(dataset: Dataset, seed: int = 42, by_config: bool = False) -> Dataset:
    """Assign train/val/test tags to valid rows in 110:55:22 proportions.

    Rounding uses largest remainders, the shuffle is seeded, and invalid
    rows keep the tag "none". With ``by_config=True`` whole configurations
    are assigned to one split (for leakage studies); the default assigns
    row by row, matching the stated sample counts.
    """
    valid = dataset.valid_samples()
    if len(valid) < 10:
        raise ConfigError(f"need at least 10 valid rows to split, got {len(valid)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if by_config:
        config_ids = sorted({s.config_index for s in valid})
        order = [config_ids[i] for i in rng.permutation(len(config_ids))]
        counts = _largest_remainder(len(order), SPLIT_WEIGHTS)
        tag_by_config = {}
        start = 0
        for name, count in zip(SPLIT_NAMES, counts):
            for cid in order[start : start + count]:
                tag_by_config[cid] = name
            start += count
        for s in valid:
            s.split = tag_by_config[s.config_index]
        return dataset
    order = rng.permutation(len(valid))
    counts = _largest_remainder(len(valid), SPLIT_WEIGHTS)
    start = 0
    for name, count in zip(SPLIT_NAMES, counts):
        for idx in order[start : start + count]:
            valid[idx].split = name
        start += count
    return dataset


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, as manifests and reports record it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_dataset(
    dataset: Dataset,
    csv_path,
    manifest_path=None,
    mc_cfg: McConfig | None = None,
    sample_seed: int | None = None,
    split_seed: int | None = None,
) -> dict:
    """Write the dataset CSV (12 significant digits, LF endings) and its manifest.

    Returns the manifest dictionary; the manifest records every knob needed
    to regenerate the file plus a content hash of the CSV.
    """
    with open(csv_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in dataset.samples:
            p = s.point
            writer.writerow([
                _fmt(p.T), _fmt(p.F0), _fmt(p.K), _fmt(p.alpha), _fmt(p.beta),
                _fmt(p.rho), _fmt(p.nu), _fmt(s.sigma_hagan), _fmt(s.sigma_mc),
                _fmt(s.feats.q), _fmt(s.feats.sigma_min), _fmt(s.feats.d_h),
                _fmt(s.feats.sigma0), f"{s.grid_index:.1f}", s.split,
                "true" if s.valid else "false",
            ])
    digest = file_sha256(csv_path)
    n_valid = len(dataset.valid_samples())
    manifest = {
        "csv_sha256": digest,
        "rows": len(dataset),
        "valid_rows": n_valid,
        "split_counts": {
            name: len(dataset.split_samples(name)) for name in SPLIT_NAMES
        },
        "sample_seed": sample_seed,
        "split_seed": split_seed,
        "hagan_bracket": HAGAN_BRACKET,
        "mc_config": None if mc_cfg is None else mc_cfg.record(),
        "buckets": [asdict(b) for b in BUCKETS],
        "tenor_year_fractions": {t: year_fraction(t) for t in DEFAULT_MATS},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if manifest_path is not None:
        with open(manifest_path, "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def load_dataset(csv_path) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`.

    Each row is checked as it is read: the field count, the numeric fields,
    the split label, the valid flag, the SABR parameters, and finite values
    in valid rows. A fault raises a one-line ConfigError naming the file and
    the line.
    """
    dataset = Dataset()
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(f"{csv_path}: unexpected dataset header {header!r}")
        for i, row in enumerate(reader):
            try:
                dataset.samples.append(_sample_from_row(row, i))
            except ConfigError as exc:
                raise ConfigError(f"{csv_path}: line {reader.line_num}: {exc}") from None
    return dataset


def _sample_from_row(row: list[str], i: int) -> Sample:
    if len(row) != len(CSV_HEADER):
        raise ConfigError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    try:
        vals = [float(x) for x in row[:14]]
    except ValueError:
        for name, text in zip(CSV_HEADER, row[:14]):
            try:
                float(text)
            except ValueError:
                raise ConfigError(f"field {name} is not a number: {text!r}") from None
    split, valid = row[14], row[15]
    if split not in _SPLIT_LABELS:
        raise ConfigError(f"split must be one of {', '.join(_SPLIT_LABELS)}; got {split!r}")
    if valid not in ("true", "false"):
        raise ConfigError(f"valid must be true or false, got {valid!r}")
    if valid == "true" and not all(map(math.isfinite, vals)):
        raise ConfigError("valid row holds a non-finite value")
    point = SabrPoint(T=vals[0], F0=vals[1], K=vals[2], alpha=vals[3],
                      beta=vals[4], rho=vals[5], nu=vals[6])
    feats = GeomFeatures(q=vals[9], sigma_min=vals[10], d_h=vals[11], sigma0=vals[12])
    return Sample(
        point=point, sigma_hagan=vals[7], sigma_mc=vals[8], feats=feats,
        grid_index=vals[13], split=split, valid=valid == "true",
        config_index=i // len(GRID_INDICES),
    )


def generate_dataset(
    num_configs: int,
    mc_cfg: McConfig,
    seed: int,
    csv_path,
    manifest_path=None,
    workers: int = 1,
    split_seed: int = 42,
    by_config_split: bool = False,
) -> tuple[Dataset, dict]:
    """End-to-end generation: build, filter, split, persist."""
    dataset = build_dataset(num_configs, mc_cfg, seed, workers)
    filter_outliers(dataset)
    split_dataset(dataset, seed=split_seed, by_config=by_config_split)
    manifest = save_dataset(
        dataset, csv_path, manifest_path, mc_cfg=mc_cfg, sample_seed=seed,
        split_seed=split_seed,
    )
    return dataset, manifest
