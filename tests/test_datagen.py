import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabrkit import datagen, mc
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
    reference_smile,
    sample_config,
    save_dataset,
    split_dataset,
    strike_grid,
    year_fraction,
)
from sabrkit.datagen import (
    SPLIT_NAMES,
    SPLIT_WEIGHTS,
    _build_config_rows,
    _closed_form_failures,
    _largest_remainder,
)
from sabrkit.errors import ConfigError, DomainError, NoConvergence, NonFinite, PriceOutOfBounds
from sabrkit.geometry import GeomFeatures, features, features_array, geom_values
from sabrkit.hagan import SabrPoint, hagan_vol, hagan_vols, sabr_values
from sabrkit.mc import McConfig, implied_vol_from_estimate, price_from_terminals, simulate_terminals
from sabrkit.net import ARCHS, TrainConfig, init_bundle, predict_vols, save_model, train

from bundles import zero_output


def make_sample(residual, idx=0, valid=True, split="none"):
    """Synthetic row with sigma_mc = sigma_hagan + residual."""
    point = SabrPoint(T=1.0, F0=0.03, K=0.03, alpha=0.03, beta=0.5, rho=-0.2, nu=0.3)
    base = hagan_vol(point)
    return Sample(point=point, sigma_hagan=base, sigma_mc=base + residual,
                  feats=features(point), grid_index=0.0, valid=valid,
                  split=split, config_index=idx)


def columns(rows):
    return np.array([sabr_values(s.point) for s in rows]).T


def row_fields(dataset):
    """Every field of every row, NaN as None so that NaN fields compare equal."""
    return [[None if v != v else v for v in (*sabr_values(s.point), s.sigma_hagan, s.sigma_mc,
                                             *geom_values(s.feats), s.grid_index)]
            + [s.split, s.valid, s.config_index] for s in dataset.samples]


# A point whose maturity bracket makes the closed form negative.
NEGATIVE_ATM = SabrPoint(T=2.0, F0=1.0, K=1.0, alpha=0.5, beta=1.0, rho=-0.95, nu=3.0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["F0", "alpha", "T"])
    def test_non_finite_or_nonpositive_input_raises(self, name, bad):
        args = dict(F0=0.03, alpha=0.2, T=1.0) | {name: bad}
        with pytest.raises(ConfigError, match=name):
            strike_grid(**args)


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
        # The array forms of the rows' own columns, bit for bit, and the
        # scalar forms to 1e-12 relative.
        ds = build_dataset(6, McConfig(paths=2000), seed=11)
        rows = ds.valid_samples()
        assert [s.sigma_hagan for s in rows] == hagan_vols(*columns(rows)).tolist()
        assert [list(geom_values(s.feats)) for s in rows] == features_array(*columns(rows)).tolist()
        for s in rows:
            assert s.sigma_hagan == pytest.approx(hagan_vol(s.point), rel=1e-12)

    def test_rows_whose_closed_form_fails_stay_invalid(self, monkeypatch):
        # The second configuration is NEGATIVE_ATM's, where the closed form
        # is negative at every grid strike. At nu = 3 a 1,000-path reference
        # fails at some strikes for many streams; base seed 1 is one whose
        # references are finite at all 11, so the closed form alone flags
        # the rows.
        p, calls, sample = NEGATIVE_ATM, itertools.count(), datagen.sample_config
        monkeypatch.setattr(datagen, "sample_config", lambda rng: (
            (p.T, p.F0, p.alpha, p.beta, p.rho, p.nu) if next(calls) == 1 else sample(rng)))
        ds = build_dataset(3, McConfig(paths=1000, base_seed=1), seed=7)
        failing = []
        for s in ds.samples:
            try:
                hagan_vol(s.point)
            except DomainError:
                failing.append(s)
                # The reference is finite: only the closed form flags the row.
                assert math.isfinite(s.sigma_mc)
                assert not s.valid and math.isnan(s.sigma_hagan)
        assert [s.config_index for s in failing] == [1] * 11
        split_dataset(filter_outliers(ds), seed=7)
        assert {s.split for s in failing} == {"none"}
        assert {s.split for s in ds.samples if s.config_index != 1} >= {"train", "val", "test"}

    def test_workers_do_not_change_output(self, monkeypatch):
        # Two blocks per config: one process and one thread against two
        # processes, each simulating its configs' blocks on two threads.
        cfg = McConfig(paths=McConfig.block_size + 1000)
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: 1)
        serial = build_dataset(4, cfg, seed=3, workers=1)
        monkeypatch.setattr(mc, "_thread_count", lambda n_blocks, path_steps: 2)
        parallel = build_dataset(4, cfg, seed=3, workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial.samples, parallel.samples):
            assert a == b

    def test_workers_capped_at_cores_and_configs(self, monkeypatch):
        # The pool starts all its workers at once; this one records how many
        # it was asked for and runs the jobs here, starting none.
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(datagen, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = McConfig(paths=1000)
        serial = row_fields(build_dataset(4, cfg, seed=3, workers=1))
        for workers in (5000, 4, 2):
            assert row_fields(build_dataset(4, cfg, seed=3, workers=workers)) == serial
        build_dataset(2, cfg, seed=3, workers=5000)
        build_dataset(1, cfg, seed=3, workers=5000)
        assert asked == [3, 3, 2, 2]


# A flat lognormal smile whose wing prices at 0.9 and 10 cannot be inverted.
UNINVERTIBLE = ((0.1, 1.0, 0.01, 1.0, 0.0, 0.0), [0.9, 1.0, 10.0])


class TestReferenceSmile:
    """reference_smile equals pricing and inverting each strike on its own
    from the same terminals, with NaN exactly where that raises."""

    @pytest.mark.parametrize("params, strikes, config_index", [
        (*UNINVERTIBLE, 0),
        ((1.0, 1.0, 0.2, 0.5, -0.8, 1.2), [0.5 + 0.1 * i for i in range(16)], 3),
    ], ids=["uninvertible", "wide smile"])
    def test_matches_per_strike_calls(self, params, strikes, config_index):
        cfg = McConfig(paths=4000)
        T, F0 = params[:2]
        sigma, se = reference_smile(*params, strikes, cfg, config_index=config_index)
        terminals = simulate_terminals(*params, cfg, config_index)
        assert sigma.shape == se.shape == (len(strikes),)
        for i, K in enumerate(strikes):
            try:
                price, std_error = price_from_terminals(terminals, K)
                mc_vol, mc_se = implied_vol_from_estimate(price, std_error, T, F0, K)
            except (PriceOutOfBounds, NoConvergence, NonFinite):
                assert math.isnan(sigma[i]) and math.isnan(se[i])
                continue
            assert sigma[i] == mc_vol
            assert se[i] == mc_se

    def test_uninvertible_strikes_are_nan(self):
        sigma, se = reference_smile(*UNINVERTIBLE[0], UNINVERTIBLE[1], McConfig(paths=4000))
        assert np.isnan(sigma).tolist() == [True, False, True]
        assert np.isnan(se).tolist() == [True, False, True]
        assert abs(sigma[1] - 0.01) <= 1e-10


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

    def test_shared_offset_is_not_an_outlier(self):
        # Every residual sits near 0.5, far above ten standard deviations
        # from zero: only the row far from their mean is flagged.
        rng = np.random.default_rng(2)
        ds = Dataset([make_sample(r, idx=i) for i, r in
                      enumerate(0.5 + rng.normal(0.0, 0.01, size=1000))])
        ds.samples.append(make_sample(1.0, idx=1000))
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


def oracle_split(dataset, seed=42, by_config=False):
    """split_dataset with one branch per mode: the reference for its single
    path over groups."""
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


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(10, 400), per_config=st.integers(1, 13),
           invalid_every=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
           by_config=st.booleans())
    def test_matches_two_branch_oracle(self, rows, per_config, invalid_every, seed, by_config):
        def tags(split):
            ds = Dataset([make_sample(0.0, idx=i // per_config,
                                      valid=not invalid_every or i % invalid_every != 0)
                          for i in range(rows)])
            try:
                split(ds, seed=seed, by_config=by_config)
            except ConfigError as exc:
                return str(exc)
            return [s.split for s in ds.samples]

        assert tags(split_dataset) == tags(oracle_split)

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
            assert b.config_index == a.config_index
            assert b.grid_index == a.grid_index
            assert b.point.T == pytest.approx(a.point.T, rel=1e-11)
            assert b.sigma_mc == pytest.approx(a.sigma_mc, rel=1e-11)
        import hashlib

        digest = hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest()
        assert digest == manifest["csv_sha256"]
        assert manifest["rows"] == 55

    @pytest.mark.parametrize("field", ["T", "F0", "alpha", "beta", "rho", "nu"])
    def test_config_index_follows_parameter_changes(self, tmp_path, field):
        # A 3-row smile, then an 11-row smile that differs from it in one
        # parameter: the rows of each smile share an index.
        first = dict(T=1.0, F0=0.03, alpha=0.03, beta=0.5, rho=-0.2, nu=0.3)
        second = {**first, field: 0.9 * first[field]}
        rows = []
        for params, n_rows in ((first, 3), (second, 11)):
            for K in np.linspace(0.8, 1.2, n_rows) * params["F0"]:
                point = SabrPoint(K=float(K), **params)
                rows.append(Sample(point=point, sigma_hagan=hagan_vol(point),
                                   sigma_mc=hagan_vol(point), feats=features(point),
                                   grid_index=0.0))
        save_dataset(Dataset(rows), tmp_path / "d.csv")
        loaded = load_dataset(tmp_path / "d.csv")
        assert [s.config_index for s in loaded.samples] == [0] * 3 + [1] * 11

    def test_persisted_hagan_recompute(self, tmp_path):
        # The file keeps the parameters exactly and load recomputes the
        # closed form from them with the array form.
        cfg = McConfig(paths=1000)
        generate_dataset(4, cfg, seed=29, csv_path=tmp_path / "d.csv")
        rows = load_dataset(tmp_path / "d.csv").valid_samples()
        assert [s.sigma_hagan for s in rows] == hagan_vols(*columns(rows)).tolist()

    def test_lf_line_endings_and_header(self, tmp_path):
        ds = Dataset([make_sample(0.001 * i, idx=i) for i in range(12)])
        split_dataset(ds, seed=42)
        save_dataset(ds, tmp_path / "d.csv")
        raw = (tmp_path / "d.csv").read_bytes()
        assert b"\r" not in raw
        first = raw.split(b"\n", 1)[0].decode()
        assert first == "T,F0,K,alpha,beta,rho,nu,sigma_mc,n,split,valid"
        assert first.split(",") == datagen.CSV_HEADER

    def test_full_column_round_trip(self, tmp_path):
        # Every column, NaN fields of invalid rows and all four split labels
        # included: a loaded file holds the saved rows field by field (the
        # record as saved, the closed form and the features recomputed),
        # and saving it gives back its bytes.
        cfg = McConfig(paths=1000)
        ds = build_dataset(2, cfg, seed=13)
        params, strikes = UNINVERTIBLE
        sigma_mc, _ = reference_smile(*params, strikes, cfg)
        T, F0, alpha, beta, rho, nu = params
        nan_feats = GeomFeatures(*[math.nan] * 4)
        for n, K, mc_vol in zip((-1.0, 0.0, 1.0), strikes, sigma_mc):
            point = SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)
            ds.samples.append(Sample(point, math.nan, float(mc_vol), nan_feats, n,
                                     valid=math.isfinite(mc_vol), config_index=2))
        # A row whose closed form fails, flagged as build_dataset flags it.
        ds.samples.append(Sample(NEGATIVE_ATM, math.nan, math.nan, nan_feats, 2.5,
                                 config_index=3))
        for i in _closed_form_failures(ds.samples).tolist():
            ds.samples[i].valid = False
        assert not ds.samples[-1].valid
        filter_outliers(ds)
        split_dataset(ds, seed=42)
        assert {s.split for s in ds.samples} == {"none", "train", "val", "test"}
        save_dataset(ds, tmp_path / "a.csv")
        loaded = load_dataset(tmp_path / "a.csv")
        assert row_fields(loaded) == row_fields(ds)
        save_dataset(loaded, tmp_path / "b.csv")
        raw = (tmp_path / "a.csv").read_bytes()
        assert b",nan," in raw
        assert (tmp_path / "b.csv").read_bytes() == raw

    def test_valid_row_outside_the_domain_is_refused_with_file_and_line(self, tmp_path):
        # NEGATIVE_ATM's closed form is NaN (its scalar form raises
        # DomainError); the message names the file and the line.
        path = tmp_path / "d.csv"
        fields = ",".join(map(str, sabr_values(NEGATIVE_ATM)))
        path.write_text(",".join(datagen.CSV_HEADER) + f"\n{fields},0.2,0,train,true\n")
        with pytest.raises(ConfigError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: line 2: valid row lies outside the closed form's domain"

    def test_json_is_strict_with_null_for_non_finite_floats(self, tmp_path):
        payload = {"a": [1.5, math.nan, (math.inf, -math.inf)], "b": {"c": np.float64("nan")}}
        datagen.write_json(tmp_path / "r.json", payload)
        loaded = json.loads((tmp_path / "r.json").read_text(), parse_constant=pytest.fail)
        assert loaded == {"a": [1.5, None, [None, None]], "b": {"c": None}}

    @pytest.mark.parametrize("fields", [
        # The closed form overflows to inf at the money.
        "1,1e-158,1e-158,0.2,0,-0.8,1.2",
        # F0/K underflows to 0, so its log is NaN.
        "1,1e-200,1e200,0.2,0.5,-0.2,0.3",
    ])
    def test_row_flagged_invalid_loads_whatever_its_closed_form_does(self, tmp_path, fields):
        path = tmp_path / "d.csv"
        path.write_text(",".join(datagen.CSV_HEADER) + f"\n{fields},nan,0,none,false\n")
        (sample,) = load_dataset(path).samples
        assert not sample.valid and math.isnan(sample.sigma_hagan)

    def test_training_on_loaded_rows_writes_the_same_models(self, tmp_path):
        ds, _ = generate_dataset(12, McConfig(paths=1000), seed=23, csv_path=tmp_path / "d.csv")
        loaded = load_dataset(tmp_path / "d.csv")
        cfg = TrainConfig(epochs=2, batch_size=32, seed=3)
        for arch in sorted(ARCHS):
            models = []
            for rows in (ds, loaded):
                bundle, _ = train(init_bundle(arch, seed=3), rows.split_samples("train"),
                                  rows.split_samples("val"), cfg)
                save_model(bundle, tmp_path / "model.json")
                models.append((tmp_path / "model.json").read_bytes())
            assert models[0] == models[1], arch

    def test_zero_output_residual_models_serve_the_rows_closed_form(self, tmp_path):
        # Criterion 9d at small scale: the dataset's closed form and batch
        # inference come from the same array form, so a zero-output residual
        # model serves each row's sigma_hagan bit for bit, before and after
        # a save and load, on a subset of the rows as on all of them.
        ds, _ = generate_dataset(6, McConfig(paths=1000), seed=31, csv_path=tmp_path / "d.csv")
        loaded = load_dataset(tmp_path / "d.csv")
        for arch in ("resnn", "georesnn"):
            bundle = zero_output(init_bundle(arch, seed=0))
            for rows in (ds.valid_samples(), ds.split_samples("test"), loaded.valid_samples()):
                served = predict_vols(bundle, [s.point for s in rows])
                assert served.tolist() == [s.sigma_hagan for s in rows], arch

    def test_byte_identical_regeneration(self, tmp_path):
        # The manifest holds no timestamp, so one seed gives the same bytes
        # in both files; each CSV's directory is made with the CSV.
        cfg = McConfig(paths=1000)
        for sub in ("a", "b"):
            generate_dataset(3, cfg, seed=5, csv_path=tmp_path / sub / "d.csv",
                             manifest_path=tmp_path / sub / "manifest.json")
        for name in ("d.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert "generated_at" not in json.loads((tmp_path / "a" / "manifest.json").read_text())
