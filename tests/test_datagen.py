import math

import numpy as np
import pytest

from sabrkit.datagen import (
    BUCKETS,
    DEFAULT_MATS,
    Dataset,
    GRID_INDICES,
    Sample,
    bucket_for_tenor,
    build_dataset,
    filter_outliers,
    generate_dataset,
    load_dataset,
    sample_config,
    save_dataset,
    split_dataset,
    strike_grid,
    year_fraction,
)
from sabrkit.datagen import _build_config_rows
from sabrkit.errors import ConfigError
from sabrkit.geometry import GeomFeatures, features
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.mc import McConfig


def make_sample(residual, idx=0, valid=True, split="none"):
    """Synthetic row with sigma_mc = sigma_hagan + residual."""
    point = SabrPoint(T=1.0, F0=0.03, K=0.03, alpha=0.03, beta=0.5, rho=-0.2, nu=0.3)
    base = hagan_vol(point)
    return Sample(point=point, sigma_hagan=base, sigma_mc=base + residual,
                  feats=features(point), grid_index=0.0, valid=valid,
                  split=split, config_index=idx)


class TestBuckets:
    def test_published_ranges(self):
        table = {
            "1W_1M": ((0.005, 0.03), (0.005, 0.02), (0.00, 0.30), (-0.20, 0.20), (0.05, 0.20)),
            "2M_6M": ((0.005, 0.04), (0.01, 0.03), (0.20, 0.50), (-0.30, 0.10), (0.10, 0.30)),
            "9M_1Y": ((0.01, 0.05), (0.02, 0.04), (0.30, 0.70), (-0.40, 0.00), (0.20, 0.40)),
            "2Y_3Y": ((0.015, 0.06), (0.03, 0.05), (0.40, 0.80), (-0.50, -0.10), (0.30, 0.50)),
            "4Y_5Y": ((0.02, 0.07), (0.04, 0.06), (0.50, 1.00), (-0.60, -0.20), (0.40, 0.60)),
        }
        assert len(BUCKETS) == 5
        for bucket in BUCKETS:
            f0, alpha, beta, rho, nu = table[bucket.name]
            assert bucket.f0_range == f0
            assert bucket.alpha_range == alpha
            assert bucket.beta_range == beta
            assert bucket.rho_range == rho
            assert bucket.nu_range == nu

    def test_every_tenor_in_exactly_one_bucket(self):
        assert len(DEFAULT_MATS) == 15
        for tenor in DEFAULT_MATS:
            owners = [b for b in BUCKETS if tenor in b.tenors]
            assert len(owners) == 1
            assert bucket_for_tenor(tenor) is owners[0]

    def test_year_fraction_convention(self):
        assert year_fraction("1W") == pytest.approx(7 / 365)
        assert year_fraction("4W") == pytest.approx(28 / 365)
        assert year_fraction("9M") == 0.75
        assert year_fraction("2Y") == 2.0
        with pytest.raises(ConfigError):
            year_fraction("3D")


class TestSampleConfig:
    def test_reproducible_first_draw(self):
        a = sample_config(np.random.default_rng(42))
        b = sample_config(np.random.default_rng(42))
        assert a == b

    def test_draws_respect_bucket_ranges(self):
        rng = np.random.default_rng(3)
        frac_to_bucket = {year_fraction(t): bucket_for_tenor(t) for t in DEFAULT_MATS}
        seen = set()
        for _ in range(3000):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            bucket = frac_to_bucket[T]
            seen.add(bucket.name)
            assert bucket.f0_range[0] <= F0 <= bucket.f0_range[1]
            assert bucket.alpha_range[0] <= alpha <= bucket.alpha_range[1]
            assert 0.0 <= beta <= 1.0
            assert bucket.beta_range[0] <= beta <= bucket.beta_range[1]
            assert -0.95 <= rho <= 0.95
            assert bucket.rho_range[0] <= rho <= bucket.rho_range[1]
            assert bucket.nu_range[0] <= nu <= bucket.nu_range[1]
        assert seen == {b.name for b in BUCKETS}

    def test_two_year_tenor_ranges(self):
        rng = np.random.default_rng(17)
        hits = 0
        while hits < 50:
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            if T == 2.0:
                hits += 1
                assert -0.50 <= rho <= -0.10
                assert 0.30 <= nu <= 0.50


class TestStrikeGrid:
    def test_shape_and_center(self):
        ks = strike_grid(1.0, 0.2, 1.0)
        assert len(ks) == 11
        assert ks[5] == 1.0
        assert np.all(np.diff(ks) > 0.0)
        assert GRID_INDICES == tuple(np.arange(-5, 6) * 0.5)

    def test_wing_values(self):
        ks = strike_grid(1.0, 0.2, 1.0)
        assert ks[-1] == pytest.approx(math.exp(0.5), rel=1e-14)
        assert ks[0] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_scales_with_forward(self):
        ks = strike_grid(0.03, 0.02, 4.0)
        assert ks[5] == 0.03
        assert ks[-1] == pytest.approx(0.03 * math.exp(2.5 * 0.02 * 2.0), rel=1e-14)


class TestBuildDataset:
    def test_one_config_shares_parameters(self):
        ds = build_dataset(1, McConfig(paths=1000), seed=7)
        assert len(ds) == 11
        first = ds.samples[0].point
        for s in ds.samples:
            assert (s.point.T, s.point.F0, s.point.alpha, s.point.beta,
                    s.point.rho, s.point.nu) == (first.T, first.F0, first.alpha,
                                                 first.beta, first.rho, first.nu)
        assert [s.grid_index for s in ds.samples] == list(GRID_INDICES)

    def test_row_count_bookkeeping(self):
        ds = build_dataset(7, McConfig(paths=1000), seed=1)
        assert len(ds) == 77

    def test_degenerate_config_rows_hit_alpha(self):
        rows = _build_config_rows((0, (1.0, 1.0, 0.2, 1.0, 0.0, 0.0), McConfig(paths=1000)))
        assert len(rows) == 11
        for s in rows:
            assert s.valid
            assert abs(s.sigma_mc - 0.2) <= 1e-10

    def test_hagan_recompute_consistency(self):
        ds = build_dataset(6, McConfig(paths=2000), seed=11)
        for s in ds.valid_samples():
            assert s.sigma_hagan == pytest.approx(hagan_vol(s.point), rel=1e-15)

    def test_workers_do_not_change_output(self):
        serial = build_dataset(4, McConfig(paths=1000), seed=3, workers=1)
        parallel = build_dataset(4, McConfig(paths=1000), seed=3, workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial.samples, parallel.samples):
            assert a == b


class TestFilter:
    def test_injected_outlier_removed(self):
        rng = np.random.default_rng(0)
        ds = Dataset([make_sample(r, idx=i) for i, r in
                      enumerate(rng.normal(0.0, 0.01, size=1000))])
        ds.samples.append(make_sample(0.5, idx=1000))
        filter_outliers(ds)
        flags = [s.valid for s in ds.samples]
        assert flags[:1000] == [True] * 1000
        assert flags[1000] is False

    def test_degenerate_population_untouched(self):
        ds = Dataset([make_sample(0.002, idx=i) for i in range(50)])
        filter_outliers(ds)
        assert all(s.valid for s in ds.samples)

    def test_empty_valid_set_rejected(self):
        ds = Dataset([make_sample(0.0, valid=False)])
        with pytest.raises(ConfigError):
            filter_outliers(ds)

    def test_threshold_uses_prefilter_population(self):
        # One enormous residual inflates the std computed once up front;
        # a mild outlier below 10x that inflated std must survive.
        rng = np.random.default_rng(1)
        ds = Dataset([make_sample(r, idx=i) for i, r in
                      enumerate(rng.normal(0.0, 0.01, size=500))])
        ds.samples.append(make_sample(5.0, idx=500))
        ds.samples.append(make_sample(0.9, idx=501))
        filter_outliers(ds)
        assert ds.samples[500].valid is False
        assert ds.samples[501].valid is True


class TestSplit:
    def test_largest_remainder_examples(self):
        ds = Dataset([make_sample(0.001 * (i % 7), idx=i) for i in range(1870)])
        split_dataset(ds, seed=42)
        counts = {name: len(ds.split_samples(name)) for name in ("train", "val", "test")}
        assert counts == {"train": 1100, "val": 550, "test": 220}

    def test_uneven_total(self):
        ds = Dataset([make_sample(0.0001 * i, idx=i) for i in range(100)])
        split_dataset(ds, seed=42)
        counts = [len(ds.split_samples(n)) for n in ("train", "val", "test")]
        assert sum(counts) == 100
        assert counts[0] in (58, 59) and counts[1] in (29, 30) and counts[2] in (11, 12)

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = Dataset([make_sample(0.0001 * i, idx=i, valid=(i % 13 != 0)) for i in range(400)])
        split_dataset(ds, seed=1)
        for s in ds.samples:
            if s.valid:
                assert s.split in ("train", "val", "test")
            else:
                assert s.split == "none"

    def test_deterministic_membership(self):
        def tags(seed):
            ds = Dataset([make_sample(0.0001 * i, idx=i) for i in range(300)])
            split_dataset(ds, seed=seed)
            return [s.split for s in ds.samples]

        assert tags(42) == tags(42)
        assert tags(42) != tags(43)

    def test_by_config_keeps_configs_whole(self):
        ds = Dataset([make_sample(0.0001 * i, idx=i // 11) for i in range(33 * 11)])
        split_dataset(ds, seed=42, by_config=True)
        for cid in range(33):
            rows = [s.split for s in ds.samples if s.config_index == cid]
            assert len(set(rows)) == 1

    def test_too_small_rejected(self):
        ds = Dataset([make_sample(0.001, idx=i) for i in range(5)])
        with pytest.raises(ConfigError):
            split_dataset(ds)


class TestPersistence:
    def test_round_trip_and_hash(self, tmp_path):
        cfg = McConfig(paths=1000)
        ds, manifest = generate_dataset(
            5, cfg, seed=13, csv_path=tmp_path / "d.csv",
            manifest_path=tmp_path / "m.json", split_seed=42,
        )
        loaded = load_dataset(tmp_path / "d.csv")
        assert len(loaded) == len(ds) == 55
        for a, b in zip(ds.samples, loaded.samples):
            assert b.split == a.split and b.valid == a.valid
            assert b.grid_index == a.grid_index
            assert b.point.T == pytest.approx(a.point.T, rel=1e-11)
            assert b.sigma_mc == pytest.approx(a.sigma_mc, rel=1e-11)
        import hashlib

        digest = hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest()
        assert digest == manifest["csv_sha256"]
        assert manifest["rows"] == 55

    def test_persisted_hagan_recompute(self, tmp_path):
        # The file keeps 12 significant digits, which bounds the recompute
        # agreement at a few 1e-12 relative.
        cfg = McConfig(paths=1000)
        generate_dataset(4, cfg, seed=29, csv_path=tmp_path / "d.csv")
        loaded = load_dataset(tmp_path / "d.csv")
        for s in loaded.valid_samples():
            assert s.sigma_hagan == pytest.approx(hagan_vol(s.point), rel=2e-11)

    def test_lf_line_endings_and_header(self, tmp_path):
        ds = Dataset([make_sample(0.001 * i, idx=i) for i in range(12)])
        split_dataset(ds, seed=42)
        save_dataset(ds, tmp_path / "d.csv")
        raw = (tmp_path / "d.csv").read_bytes()
        assert b"\r" not in raw
        first = raw.split(b"\n", 1)[0].decode()
        assert first == ("T,F0,K,alpha,beta,rho,nu,sigma_hagan,sigma_mc,"
                         "q,sigma_min,d_h,sigma0,n,split,valid")

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = McConfig(paths=1000)
        generate_dataset(3, cfg, seed=5, csv_path=tmp_path / "a.csv")
        generate_dataset(3, cfg, seed=5, csv_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
