"""Synthetic supervised dataset: bucketed parameter sampling, strike grids,
Monte Carlo reference vols, outlier filtering, splitting and persistence.

Each configuration draws a maturity from a fixed tenor list, takes its
parameters uniformly from the ranges of the maturity's bucket, then prices
an 11-strike smile with :func:`reference_smile`, from a single set of
simulated terminal values. Rows whose reference vol cannot be computed
(price outside the invertible interval, closed form outside its validity
domain) are kept in the file but flagged invalid. The file holds only the
Monte Carlo record and loads back exactly. A built or loaded dataset takes
its closed form and features from one pass of the array forms over all its
rows, so they equal what :func:`~sabrkit.net.predict_vols` computes bit for
bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFinite, NoConvergence, PriceOutOfBounds
# hagan_vol and features never run here: perfbench's INTERNAL table rebinds them by name.
from .geometry import GeomFeatures, features, features_array
from .hagan import HAGAN_BRACKET, SABR_FIELDS, SabrPoint, check_positive, hagan_vol, hagan_vols, sabr_values
from .mc import McConfig, implied_vol_from_estimate, price_from_terminals, simulate_terminals, usable_cores

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
    "reference_smile",
    "sample_config",
    "save_dataset",
    "split_dataset",
    "strike_grid",
    "write_csv",
    "write_json",
    "year_fraction",
]

SPLIT_WEIGHTS = (110, 55, 22)
SPLIT_NAMES = ("train", "val", "test")
_SPLIT_LABELS = ("none", *SPLIT_NAMES)

CSV_HEADER = [*SABR_FIELDS, "sigma_mc", "n", "split", "valid"]
_SPLIT = CSV_HEADER.index("split")  # the fields before it are numeric

GRID_INDICES = tuple(i * 0.5 for i in range(-5, 6))

_NAN_FEATS = GeomFeatures(*[math.nan] * 4)


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

    The middle strike is F0 exactly. Raises ConfigError unless T, F0 and
    alpha are finite and > 0.
    """
    check_positive(T=T, F0=F0, alpha=alpha)
    n = np.array(GRID_INDICES)
    return F0 * np.exp(n * alpha * math.sqrt(T))


@dataclass
class Sample:
    """One supervised row. ``sigma_hagan`` and ``feats`` are the closed form
    and the features of ``point``, NaN where the scalar forms raise (then
    the row is invalid, see :func:`_closed_form_failures`)."""

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


def reference_smile(
    T: float,
    F0: float,
    alpha: float,
    beta: float,
    rho: float,
    nu: float,
    strikes,
    mc_cfg: McConfig,
    config_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo reference vols and their standard errors on a strike list.

    One set of terminals is simulated and every strike is priced from it
    with the control variate, then inverted. A strike whose price is not
    finite or cannot be inverted gets NaN in both arrays.
    """
    terminals = simulate_terminals(T, F0, alpha, beta, rho, nu, mc_cfg, config_index)
    sigma = np.full(len(strikes), np.nan)
    se = np.full(len(strikes), np.nan)
    for i, K in enumerate(strikes):
        K = float(K)
        try:
            price, std_error = price_from_terminals(terminals, K)
            sigma[i], se[i] = implied_vol_from_estimate(price, std_error, T, F0, K)
        except (PriceOutOfBounds, NoConvergence, NonFinite):
            pass
    return sigma, se


def _closed_form_failures(samples: list[Sample]) -> np.ndarray:
    """Set every row's ``sigma_hagan`` and ``feats`` from one pass of the
    array forms, NaN where they fail, and return the indices of the rows
    where either fails, in order."""
    cols = np.array([sabr_values(s.point) for s in samples], float).reshape(-1, len(SABR_FIELDS)).T
    sigma, feats = hagan_vols(*cols), features_array(*cols)
    for s, h, f in zip(samples, sigma.tolist(), feats.tolist()):
        s.sigma_hagan, s.feats = h, GeomFeatures(*f)
    return np.flatnonzero(np.isnan(sigma) | np.isnan(feats[:, 0]))


def _build_config_rows(args) -> list[Sample]:
    config_index, params, mc_cfg = args
    T, F0, alpha, beta, rho, nu = params
    strikes = strike_grid(F0, alpha, T)
    sigma_mc, _ = reference_smile(T, F0, alpha, beta, rho, nu, strikes, mc_cfg, config_index)
    return [Sample(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu),
                   math.nan, mc_vol, _NAN_FEATS, n, valid=math.isfinite(mc_vol),
                   config_index=config_index)
            for n, K, mc_vol in zip(GRID_INDICES, strikes.tolist(), sigma_mc.tolist())]


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
    The pool starts every process at once: ``workers`` is capped at the
    usable cores and at ``num_configs``. A row whose closed form or
    features fail (:func:`_closed_form_failures`) is invalid.
    """
    if num_configs < 1:
        raise ConfigError(f"num_configs must be >= 1, got {num_configs!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    jobs = [(i, sample_config(rng), mc_cfg) for i in range(num_configs)]

    dataset = Dataset()
    workers = min(workers, num_configs, usable_cores())
    if workers <= 1:
        for job in jobs:
            dataset.samples.extend(_build_config_rows(job))
    else:
        chunk = max(1, num_configs // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(_build_config_rows, jobs, chunksize=chunk):
                dataset.samples.extend(rows)
    for i in _closed_form_failures(dataset.samples).tolist():
        dataset.samples[i].valid = False
    return dataset


def filter_outliers(dataset: Dataset) -> Dataset:
    """Flag rows whose residual sigma_mc - sigma_hagan lies more than ten
    standard deviations from the residuals' mean.

    Both are taken once, over the pre-filter valid population, so an offset
    that every row shares flags none. A degenerate population (std below
    1e-12) disables the filter instead of removing everything.
    """
    valid = dataset.valid_samples()
    if not valid:
        raise ConfigError("dataset has no valid rows to filter")
    residuals = np.array([s.sigma_mc - s.sigma_hagan for s in valid])
    std = float(residuals.std())
    if std < 1e-12:
        return dataset
    far = np.abs(residuals - residuals.mean()) > 10.0 * std
    for s, out in zip(valid, far):
        if out:
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
    # A group is a configuration or a row; the sorted groups are shuffled
    # and dealt out in split order.
    keys = [s.config_index for s in valid] if by_config else np.arange(len(valid))
    groups, group_of = np.unique(keys, return_inverse=True)
    counts = _largest_remainder(len(groups), SPLIT_WEIGHTS)
    tags = np.empty(len(groups), dtype=object)
    tags[rng.permutation(len(groups))] = np.repeat(np.array(SPLIT_NAMES, dtype=object), counts)
    for s, tag in zip(valid, tags[group_of]):
        s.split = tag
    return dataset


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, as manifests and reports record it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_csv(path, header, rows) -> None:
    """Write an artifact CSV: every value as ``str`` gives it, so floats read
    back exactly, and LF endings. Like :func:`write_json`, it makes the
    file's directory first: a directory appears with its first file."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _finite_or_null(value):
    """``value`` with each non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write an artifact JSON: strict, a non-finite float as ``null``, sorted
    keys, two-space indent, a final newline, LF endings; the file's
    directory is made first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_dataset(
    dataset: Dataset,
    csv_path,
    manifest_path=None,
    mc_cfg: McConfig | None = None,
    sample_seed: int | None = None,
    split_seed: int | None = None,
    split_by_config: bool = False,
) -> dict:
    """Write the dataset CSV and its manifest with :func:`write_csv` and
    :func:`write_json`.

    Returns the manifest dictionary; the manifest records every knob needed
    to regenerate the file plus a content hash of the CSV, and no
    timestamp, so one seed gives the same manifest bytes.
    """
    write_csv(csv_path, CSV_HEADER, (
        (*sabr_values(s.point), s.sigma_mc, s.grid_index, s.split, "true" if s.valid else "false")
        for s in dataset.samples))
    manifest = {
        "csv_sha256": file_sha256(csv_path),
        "rows": len(dataset),
        "valid_rows": len(dataset.valid_samples()),
        "split_counts": {
            name: len(dataset.split_samples(name)) for name in SPLIT_NAMES
        },
        "sample_seed": sample_seed,
        "split_seed": split_seed,
        "split_by_config": split_by_config,
        "hagan_bracket": HAGAN_BRACKET,
        "mc_config": None if mc_cfg is None else mc_cfg.record(),
        "buckets": [asdict(b) for b in BUCKETS],
        "tenor_year_fractions": {t: year_fraction(t) for t in DEFAULT_MATS},
    }
    if manifest_path is not None:
        write_json(manifest_path, manifest)
    return manifest


def load_dataset(csv_path) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`.

    Each row is checked as it is read: the field count, the numeric fields,
    the split label, the valid flag, the SABR parameters and finite values
    in valid rows; then the closed form and the features of all rows
    (:func:`_closed_form_failures`) must not be NaN on valid rows. A fault, or
    a line the csv module cannot parse (such as a field over its size
    limit), raises a one-line ConfigError naming the file and the line; a
    byte the text codec cannot decode raises one naming the file.

    A row starts a new configuration index where its T, F0, alpha, beta,
    rho or nu differs from the previous row's, so the rows of one smile,
    however many, share an index.
    """
    dataset, line_nums = Dataset(), []
    config_index, last = -1, None
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ConfigError(f"unexpected dataset header {header!r}")
            for row in reader:
                sample = _sample_from_row(row)
                p = sample.point
                config = (p.T, p.F0, p.alpha, p.beta, p.rho, p.nu)
                if config != last:
                    config_index, last = config_index + 1, config
                sample.config_index = config_index
                dataset.samples.append(sample)
                line_nums.append(reader.line_num)
        except (ConfigError, csv.Error) as exc:
            raise ConfigError(f"{csv_path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # Text is decoded ahead of the csv reader, so no line is known.
            raise ConfigError(f"{csv_path}: not a text file ({exc})") from None
    for i in _closed_form_failures(dataset.samples).tolist():
        if dataset.samples[i].valid:
            raise ConfigError(f"{csv_path}: line {line_nums[i]}: valid row lies outside the "
                              "closed form's domain")
    return dataset


def _sample_from_row(row: list[str]) -> Sample:
    if len(row) != len(CSV_HEADER):
        raise ConfigError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    try:
        vals = [float(x) for x in row[:_SPLIT]]
    except ValueError:
        for name, text in zip(CSV_HEADER, row[:_SPLIT]):
            try:
                float(text)
            except ValueError:
                raise ConfigError(f"field {name} is not a number: {text!r}") from None
    split, valid = row[_SPLIT:]
    if split not in _SPLIT_LABELS:
        raise ConfigError(f"split must be one of {', '.join(_SPLIT_LABELS)}; got {split!r}")
    if valid not in ("true", "false"):
        raise ConfigError(f"valid must be true or false, got {valid!r}")
    if valid == "true" and not all(map(math.isfinite, vals)):
        raise ConfigError("valid row holds a non-finite value")
    *params, sigma_mc, grid_index = vals
    return Sample(SabrPoint(*params), math.nan, sigma_mc, _NAN_FEATS, grid_index, split,
                  valid == "true")


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
    """End-to-end generation: build, filter, split, persist. Nothing is
    written before the rows are split, and :func:`save_dataset` makes the
    CSV's directory with the CSV."""
    dataset = build_dataset(num_configs, mc_cfg, seed, workers)
    filter_outliers(dataset)
    split_dataset(dataset, seed=split_seed, by_config=by_config_split)
    manifest = save_dataset(
        dataset, csv_path, manifest_path, mc_cfg=mc_cfg, sample_seed=seed,
        split_seed=split_seed, split_by_config=by_config_split,
    )
    return dataset, manifest
