import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabrkit import net
from sabrkit.datagen import GRID_INDICES, Sample, sample_config, strike_grid
from sabrkit.errors import ConfigError, Diverged, NonFinite, ShapeMismatch
from sabrkit.geometry import features
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ARCHS,
    BN_EPS,
    BN_MOMENTUM,
    HIDDEN_SIZES,
    AdamState,
    PlateauScheduler,
    TrainConfig,
    adam_step,
    backward,
    design_matrix,
    fold_layers,
    forward,
    init_bundle,
    load_model,
    predict_from_rows,
    predict_vol,
    predict_vols,
    save_model,
    targets,
    train,
    trainable_params,
)

from bundles import to_v1, zero_output


def synthetic_rows(n, seed=0, residual_fn=None, tenor=None):
    """Rows drawn from the generator domain with a controllable residual,
    at the drawn maturities or all at ``tenor``."""
    rng = np.random.default_rng(seed)
    rows = []
    i = 0
    while len(rows) < n:
        T, F0, alpha, beta, rho, nu = sample_config(rng)
        T = T if tenor is None else tenor
        for k in strike_grid(F0, alpha, T)[2:9:3]:
            point = SabrPoint(T=T, F0=F0, K=float(k), alpha=alpha, beta=beta,
                              rho=rho, nu=nu)
            base = hagan_vol(point)
            residual = residual_fn(point) if residual_fn else 0.02 * math.sin(17.0 * k / F0)
            rows.append(Sample(point=point, sigma_hagan=base,
                               sigma_mc=base * (1.0 + residual),
                               feats=features(point), grid_index=0.0,
                               config_index=i, valid=True))
            if len(rows) == n:
                break
        i += 1
    return rows


class TestForward:
    def test_zero_network_outputs_zero(self):
        bundle = zero_output(init_bundle("ndn", seed=0))
        x = np.random.default_rng(1).normal(size=(9, 7))
        for training in (False, True):
            y, _ = forward(bundle, x, training=training)
            assert np.all(y == 0.0)

    def test_single_linear_layer_selects_coordinate(self):
        bundle = init_bundle("ndn", seed=0, hidden_sizes=())
        bundle.layers[0].w[:] = 0.0
        bundle.layers[0].w[3, 0] = 1.0
        bundle.layers[0].b[:] = 0.0
        x = np.random.default_rng(2).normal(size=(5, 7))
        y, _ = forward(bundle, x)
        np.testing.assert_allclose(y, x[:, 3], rtol=0, atol=0)

    def test_batch_norm_training_statistics(self):
        bundle = init_bundle("ndn", seed=3)
        x = np.random.default_rng(4).normal(size=(128, 7))
        _, caches = forward(bundle, x, training=True)
        z_hat = caches[0]["z_hat"]
        assert np.max(np.abs(z_hat.mean(axis=0))) <= 1e-6
        assert np.max(np.abs(z_hat.var(axis=0) - 1.0)) <= 1e-4

    def test_running_stats_updated_only_in_training(self):
        bundle = init_bundle("ndn", seed=5)
        x = np.random.default_rng(6).normal(size=(64, 7)) + 3.0
        before = bundle.layers[0].bn.running_mean.copy()
        forward(bundle, x, training=False)
        np.testing.assert_array_equal(bundle.layers[0].bn.running_mean, before)
        forward(bundle, x, training=True)
        assert not np.array_equal(bundle.layers[0].bn.running_mean, before)

    def test_shape_mismatch_rejected(self):
        bundle = init_bundle("ndn", seed=0)
        with pytest.raises(ShapeMismatch):
            forward(bundle, np.zeros((4, 11)))
        with pytest.raises(ShapeMismatch):
            forward(bundle, np.zeros((0, 7)))

    def test_arch_input_widths(self):
        assert len(init_bundle("ndn").feature_names) == 7
        assert len(init_bundle("resnn").feature_names) == 7
        assert len(init_bundle("geonn").feature_names) == 11
        assert len(init_bundle("georesnn").feature_names) == 11
        assert init_bundle("georesnn").layer_sizes == [11, 64, 64, 32, 1]

    def test_trainable_parameter_counts(self):
        # A hidden layer trains w and its batch norm's scale and shift, with
        # no bias; the output layer trains w and b.
        counts = {arch: sum(p.size for p in trainable_params(init_bundle(arch))) for arch in ARCHS}
        assert counts == {"ndn": 6_945, "resnn": 6_945, "geonn": 7_201, "georesnn": 7_201}
        layers = init_bundle("georesnn").layers
        assert all(layer.b is None for layer in layers[:-1]) and layers[-1].bn is None


def explicit_eval_forward(bundle, x):
    """Eval-mode forward running standardization and batch norm explicitly,
    at the running statistics: the oracle for the folded stack."""
    a = (x - bundle.x_mean) / bundle.x_std
    for layer in bundle.layers[:-1]:
        z = a @ layer.w
        bn = layer.bn
        inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPS)
        a = np.maximum(bn.scale * ((z - bn.running_mean) * inv_std) + bn.shift, 0.0)
    last = bundle.layers[-1]
    return (a @ last.w + last.b)[:, 0]


# Trained bundles by key: each arch at the default hidden sizes, and ndn
# with no hidden layer and with one hidden unit.
BUNDLE_SPECS = {**{arch: (arch, HIDDEN_SIZES) for arch in sorted(ARCHS)},
                "ndn-no-hidden": ("ndn", ()), "ndn-one-unit": ("ndn", (1,))}


@pytest.fixture(scope="module")
def trained_rows():
    rows = synthetic_rows(300, seed=51)
    bundles = {}
    for key, (arch, hidden) in BUNDLE_SPECS.items():
        init = init_bundle(arch, seed=51, hidden_sizes=hidden)
        bundles[key], _ = train(init, rows[:220], rows[220:], TrainConfig(epochs=3, seed=51))
    return bundles, rows


@pytest.fixture(scope="module")
def loaded_models(trained_rows, tmp_path_factory):
    bundles, _ = trained_rows
    out = tmp_path_factory.mktemp("models")
    for arch in ARCHS:
        save_model(bundles[arch], out / f"{arch}.json")
    return {arch: load_model(out / f"{arch}.json") for arch in ARCHS}


class TestFoldedForward:
    @pytest.mark.parametrize("key", list(BUNDLE_SPECS))
    def test_matches_explicit_batch_norm(self, trained_rows, key):
        bundles, rows = trained_rows
        bundle = bundles[key]
        x = design_matrix([s.point for s in rows], bundle.arch)
        folded, caches = forward(bundle, x, training=False)
        oracle = explicit_eval_forward(bundle, x)
        assert caches is None
        # Relative to the largest output: an output that crosses zero has
        # no relative precision of its own.
        assert np.max(np.abs(folded - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("key", [k for k in BUNDLE_SPECS if k != "ndn-no-hidden"])
    def test_carried_unit_is_one_after_every_hidden_layer(self, trained_rows, key):
        bundle = trained_rows[0][key]
        rng = np.random.default_rng(53)
        shape = (500, len(bundle.feature_names))
        x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
        # The steps of the eval-mode forward, keeping each hidden activation.
        w0, b0, rest = fold_layers(bundle)
        a = np.dot(x, w0) + b0
        units = []
        for w in rest:
            a = np.maximum(a, 0.0)
            units.append(a[:, -1])
            a = np.dot(a, w)
        assert np.all(np.isfinite(a))
        assert len(units) == len(bundle.layers) - 1
        for unit in units:
            np.testing.assert_array_equal(unit, 1.0)

    def test_load_stores_the_fold(self, trained_rows, tmp_path):
        bundles, rows = trained_rows
        save_model(bundles["georesnn"], tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.folded is not None
        x = design_matrix([s.point for s in rows], "georesnn")
        stored, _ = forward(loaded, x)
        loaded.folded = None
        np.testing.assert_array_equal(stored, forward(loaded, x)[0])

    def test_retrained_bundle_predicts_its_new_weights(self, trained_rows, tmp_path):
        bundles, rows = trained_rows
        save_model(bundles["georesnn"], tmp_path / "m.json")
        bundle = load_model(tmp_path / "m.json")
        points = [s.point for s in rows[220:]]
        before = predict_vols(bundle, points)
        bundle, _ = train(bundle, rows[:220], rows[220:], TrainConfig(epochs=1, seed=52))
        after = predict_vols(bundle, points)
        assert not np.array_equal(after, before)
        fresh = copy.copy(bundle)
        fresh.folded = fold_layers(bundle)
        np.testing.assert_array_equal(after, predict_vols(fresh, points))

    def test_training_forward_drops_the_fold(self, trained_rows, tmp_path):
        bundles, rows = trained_rows
        save_model(bundles["ndn"], tmp_path / "m.json")
        bundle = load_model(tmp_path / "m.json")
        forward(bundle, design_matrix([s.point for s in rows[:8]], "ndn"), training=True)
        assert bundle.folded is None


class TestBlockedForward:
    """Eval mode runs in 128-row blocks from row 0, a lone last row joining
    the block before it: the bits of one whole-matrix chain, in memory that
    does not grow with the batch."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_blocks_keep_the_whole_matrix_bits(self, loaded_models, arch):
        bundle = loaded_models[arch]
        x = design_matrix([s.point for s in synthetic_rows(1025, seed=86)[:1025]], arch)
        w0, b0, rest = fold_layers(bundle)
        changed = []
        for n in (1, 2, 127, 128, 129, 130, 255, 256, 257, 883, 1024, 1025):
            a = np.dot(x[:n], w0)
            a += b0
            for w in rest:
                a = np.dot(np.maximum(a, 0.0), w)
            if forward(bundle, x[:n])[0].tobytes() != a[:, 0].tobytes():
                changed.append(n)
        assert changed == []

    def test_eval_memory_does_not_grow_with_the_batch(self, loaded_models):
        bundle = loaded_models["georesnn"]
        x = np.random.default_rng(87).normal(size=(22_000, 11))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            forward(bundle, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # 0.32 MB in blocks: the 176 KB output and one block's activations.
        # One whole-matrix chain would peak at 22.9 MB.
        assert peak < 1_000_000


class TestLoss:
    """The training loss is the mean squared error against ``targets``."""

    def test_exact_fit_is_zero(self):
        rows = synthetic_rows(8, seed=1)
        target = np.array([s.sigma_mc / s.sigma_hagan - 1.0 for s in rows])
        assert np.array_equal(targets(rows, "residual_ratio"), target)

    def test_hand_arithmetic(self):
        rows = synthetic_rows(2, seed=2)
        rows[0].sigma_mc = rows[0].sigma_hagan * 1.1
        rows[1].sigma_mc = rows[1].sigma_hagan * 0.9
        assert targets(rows, "residual_ratio") == pytest.approx([0.1, -0.1], abs=1e-15)

    def test_ratio_targets_scale_invariant(self):
        rows = synthetic_rows(6, seed=3)
        base = targets(rows, "residual_ratio")
        for s in rows:
            s.sigma_hagan *= 3.7
            s.sigma_mc *= 3.7
        assert targets(rows, "residual_ratio") == pytest.approx(base, rel=1e-12)

    def test_direct_mode(self):
        rows = synthetic_rows(4, seed=4)
        assert np.array_equal(targets(rows, "direct"), [s.sigma_mc for s in rows])

    def test_requires_positive_hagan_for_ratio(self):
        rows = synthetic_rows(3, seed=5)
        rows[1].sigma_hagan = 0.0
        with pytest.raises(ConfigError):
            targets(rows, "residual_ratio")


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.zeros(3)
        state = AdamState.for_params(theta)
        adam_step(state, theta, np.ones(3), lr=0.004)
        assert np.allclose(theta, -0.004, atol=1e-8)

    def test_zero_gradient_no_change(self):
        theta = np.full(4, 1.5)
        state = AdamState.for_params(theta)
        adam_step(state, theta, np.zeros(4), lr=0.004)
        np.testing.assert_array_equal(theta, np.full(4, 1.5))

    def test_repeated_gradient_stable_step(self):
        theta = np.zeros(1)
        state = AdamState.for_params(theta)
        adam_step(state, theta, np.ones(1), lr=0.004)
        first = abs(theta[0] - 0.0)
        before = theta[0]
        adam_step(state, theta, np.ones(1), lr=0.004)
        second = abs(theta[0] - before)
        assert second <= first * 1.05

    def test_non_finite_gradient_raises(self):
        theta = np.zeros(2)
        state = AdamState.for_params(theta)
        with pytest.raises(NonFinite):
            adam_step(state, theta, np.array([1.0, np.nan]), lr=0.004)


class TestScheduler:
    def test_constant_loss_halves_at_six_and_eleven(self):
        sched = PlateauScheduler(lr=4e-3)
        lrs = [sched.step(1.0) for _ in range(12)]
        assert lrs[:5] == [4e-3] * 5
        assert lrs[5] == pytest.approx(2e-3)
        assert lrs[5:10] == [pytest.approx(2e-3)] * 5
        assert lrs[10] == pytest.approx(1e-3)
        assert lrs[11] == pytest.approx(1e-3)

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(lr=1.0)
        for v in (1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5):
            sched.step(v)
        assert sched.lr == 1.0
        sched.step(0.5)
        assert sched.lr == 0.5

    def test_tiny_relative_improvement_does_not_count(self):
        sched = PlateauScheduler(lr=1.0)
        value = 1.0
        for _ in range(6):
            sched.step(value)
            value *= 1.0 - 1e-9
        assert sched.lr == 0.5


class TestGradients:
    def test_backprop_matches_central_differences(self):
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
        assert len(grads) == len(params)

        # The 7->8->1 body has 81 trainable scalars, so 100 perturbations
        # sample (array, entry) pairs with replacement.
        pairs = [(arr, grad, idx) for arr, grad in zip(params, grads)
                 for idx in range(arr.size)]
        h = 1e-6
        checks = 0
        for draw in rng.choice(len(pairs), size=100, replace=True):
            arr, grad, idx = pairs[draw]
            flat = arr.reshape(-1)
            flat_grad = grad.reshape(-1)
            old = flat[idx]
            flat[idx] = old + h
            up = loss_value()
            flat[idx] = old - h
            down = loss_value()
            flat[idx] = old
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(flat_grad[idx]))
            # Entries behind dead ReLU units are exactly zero and only
            # central-difference rounding noise (~1e-10) remains.
            if denom >= 1e-7:
                assert abs(flat_grad[idx] - fd) / denom <= 1e-5
            else:
                assert abs(flat_grad[idx] - fd) <= 1e-7
            checks += 1
        assert checks == 100


class TestTrain:
    def test_single_epoch_bookkeeping(self):
        rows = synthetic_rows(256, seed=21)
        bundle = init_bundle("georesnn", seed=21)
        bundle, history = train(bundle, rows[:192], rows[192:],
                                TrainConfig(epochs=1, seed=21))
        assert len(history) == 1
        rec = history[0]
        assert rec.epoch == 1
        assert math.isfinite(rec.train_loss) and math.isfinite(rec.val_loss)
        assert bundle.manifest["best_epoch"] == 1

    def test_best_weights_returned(self):
        rows = synthetic_rows(300, seed=22)
        bundle = init_bundle("resnn", seed=22)
        bundle, history = train(bundle, rows[:220], rows[220:],
                                TrainConfig(epochs=12, seed=22))
        best = min(history, key=lambda r: r.val_loss)
        assert bundle.manifest["best_epoch"] == best.epoch
        assert bundle.manifest["best_val_loss"] == best.val_loss
        running_best = math.inf
        for rec in history:
            running_best = min(running_best, rec.val_loss)
        assert bundle.manifest["best_val_loss"] == running_best

    def test_learns_linear_residual(self):
        # Noiseless ratio target 0.1*T over a continuous maturity range; the
        # standard protocol must drive the loss through the 1e-4 line.
        rng = np.random.default_rng(23)
        rows = []
        for i in range(20_480):
            T = rng.uniform(0.25, 2.0)
            F0, alpha = rng.uniform(0.02, 0.05), rng.uniform(0.02, 0.05)
            point = SabrPoint(
                T=T, F0=F0, alpha=alpha, beta=rng.uniform(0.3, 0.7),
                rho=rng.uniform(-0.5, 0.0), nu=rng.uniform(0.2, 0.5),
                K=F0 * math.exp(rng.uniform(-1.5, 1.5) * alpha * math.sqrt(T)),
            )
            base = hagan_vol(point)
            rows.append(Sample(point=point, sigma_hagan=base,
                               sigma_mc=base * (1.0 + 0.1 * T),
                               feats=features(point), grid_index=0.0,
                               config_index=i, valid=True))
        bundle = init_bundle("georesnn", seed=23)
        bundle, history = train(bundle, rows[:16_384], rows[16_384:],
                                TrainConfig(epochs=100, seed=23))
        assert min(rec.train_loss for rec in history) < 1e-4

    def test_deterministic_given_seed(self):
        rows = synthetic_rows(200, seed=24)

        def run():
            bundle = init_bundle("ndn", seed=24)
            bundle, _ = train(bundle, rows[:150], rows[150:],
                              TrainConfig(epochs=3, seed=24))
            return bundle

        a, b = run(), run()
        for pa, pb in zip(trainable_params(a), trainable_params(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_standardization_fitted_on_train_only(self):
        rows = synthetic_rows(128, seed=25)
        bundle = init_bundle("ndn", seed=25)
        bundle, _ = train(bundle, rows[:96], rows[96:], TrainConfig(epochs=1, seed=25))
        x_train = design_matrix([s.point for s in rows[:96]], "ndn")
        np.testing.assert_allclose(bundle.x_mean, x_train.mean(axis=0), rtol=0, atol=0)

    def test_empty_split_rejected(self):
        rows = synthetic_rows(20, seed=26)
        with pytest.raises(ConfigError):
            train(init_bundle("ndn"), rows, [], TrainConfig(epochs=1))

    def test_single_tenor_predicts_off_it(self):
        # T is constant in the training split, so it keeps a unit scale and
        # a point a hundredth of a year off is not scaled by 1/std.
        rows = synthetic_rows(300, seed=29, tenor=0.25)
        bundle, _ = train(init_bundle("resnn", seed=29), rows[:220], rows[220:],
                          TrainConfig(epochs=20, batch_size=32, seed=29))
        assert bundle.x_std[0] == 1.0
        off = [SabrPoint(T=0.26, F0=p.F0, K=p.K, alpha=p.alpha, beta=p.beta, rho=p.rho, nu=p.nu)
               for p in (s.point for s in rows[220:])]
        ratio = predict_vols(bundle, off) / np.array([hagan_vol(p) for p in off])
        assert np.all(np.isfinite(ratio))
        # The fit is loose at 220 rows; unit scale keeps it near the closed
        # form, where a 1e-12 scale put the vols near 1e8.
        assert np.median(np.abs(ratio - 1.0)) <= 0.1

    def test_returns_folded_bundle(self, trained_rows):
        bundles, rows = trained_rows
        bundle = bundles["georesnn"]
        assert bundle.folded is not None
        unfolded = copy.copy(bundle)
        unfolded.folded = None
        points = [s.point for s in rows]
        np.testing.assert_array_equal(predict_vols(bundle, points), predict_vols(unfolded, points))

    def test_non_finite_validation_loss_diverges(self):
        rows = synthetic_rows(84, seed=27)
        val = synthetic_rows(12, seed=28)
        for s in val:
            s.sigma_mc = 1e200  # squared error overflows to inf
        with pytest.raises(Diverged):
            train(init_bundle("ndn", seed=27), rows, val, TrainConfig(epochs=1, seed=27))


def oracle_forward(bundle, x):
    """Training-mode forward pass with the batch variance from ``z.var``."""
    bundle.folded = None
    a = (x - bundle.x_mean) / bundle.x_std
    caches = []
    for layer in bundle.layers[:-1]:
        z = a @ layer.w
        bn = layer.bn
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        n = z.shape[0]
        unbiased = var * n / (n - 1) if n > 1 else var
        bn.running_mean = (1.0 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mu
        bn.running_var = (1.0 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * unbiased
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        z_hat = (z - mu) * inv_std
        pre_act = bn.scale * z_hat + bn.shift
        caches.append((a, z_hat, inv_std, pre_act > 0.0))
        a = np.maximum(pre_act, 0.0)
    last = bundle.layers[-1]
    return (a @ last.w + last.b)[:, 0], caches + [a]


def oracle_backward(bundle, caches, d_out):
    """Gradients per array, in trainable_params order, carrying the input
    gradient down through every layer."""
    d_z = d_out[:, None]
    per_layer = [[caches[-1].T @ d_z, d_z.sum(axis=0)]]
    d_a = d_z @ bundle.layers[-1].w.T
    for layer, (x, z_hat, inv_std, mask) in zip(reversed(bundle.layers[:-1]),
                                                 reversed(caches[:-1])):
        d_pre = d_a * mask
        d_zhat = d_pre * layer.bn.scale
        n = d_zhat.shape[0]
        d_z = (inv_std / n) * (n * d_zhat - d_zhat.sum(axis=0)
                               - z_hat * (d_zhat * z_hat).sum(axis=0))
        per_layer.append([x.T @ d_z, (d_pre * z_hat).sum(axis=0), d_pre.sum(axis=0)])
        d_a = d_z @ layer.w.T
    return [g for layer_grads in reversed(per_layer) for g in layer_grads]


def oracle_train(bundle, train_rows, val_rows, cfg):
    """The training loop with one Adam update per array: the reference for
    train's single update of its parameter vector."""
    x_train = design_matrix([s.point for s in train_rows], bundle.arch)
    x_val = design_matrix([s.point for s in val_rows], bundle.arch)
    y_train, y_val = (targets(rows, bundle.target_mode) for rows in (train_rows, val_rows))
    bundle.x_mean = x_train.mean(axis=0)
    x_std = x_train.std(axis=0)
    bundle.x_std = np.where(x_std > 1e-12, x_std, 1.0)
    params = trainable_params(bundle)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    scheduler = PlateauScheduler(lr=cfg.lr0)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    best_val, best_epoch, best_layers = math.inf, 0, copy.deepcopy(bundle.layers)
    lr, t, n = cfg.lr0, 0, len(train_rows)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            pred, caches = oracle_forward(bundle, x_train[idx])
            err = pred - y_train[idx]
            grads = oracle_backward(bundle, caches, 2.0 * err / err.size)
            t += 1
            correct1, correct2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for p, g, m_p, v_p in zip(params, grads, m, v):
                m_p *= ADAM_BETA1
                m_p += (1.0 - ADAM_BETA1) * g
                v_p *= ADAM_BETA2
                v_p += (1.0 - ADAM_BETA2) * g * g
                p -= lr * (m_p / correct1) / (np.sqrt(v_p / correct2) + ADAM_EPS)
        val_loss = float(np.mean((forward(bundle, x_val)[0] - y_val) ** 2))
        lr = scheduler.step(val_loss)
        if val_loss < best_val:
            best_val, best_epoch, best_layers = val_loss, epoch, copy.deepcopy(bundle.layers)
    bundle.layers = best_layers
    bundle.manifest.update({
        "train_seed": cfg.seed, "best_epoch": best_epoch, "best_val_loss": best_val,
        "epochs_run": cfg.epochs, "lr0": cfg.lr0, "batch_size": cfg.batch_size,
        "train_rows": n, "val_rows": len(val_rows),
    })
    return bundle


class TestTrainOracle:
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_model_bytes_match_per_array_training(self, arch, tmp_path):
        rows = synthetic_rows(400, seed=71)
        cfg = TrainConfig(epochs=3, seed=72)
        bundle, _ = train(init_bundle(arch, seed=71), rows[:300], rows[300:], cfg)
        save_model(bundle, tmp_path / "flat.json")
        save_model(oracle_train(init_bundle(arch, seed=71), rows[:300], rows[300:], cfg),
                   tmp_path / "oracle.json")
        assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**32 - 1),
           st.sampled_from((1e-3, 1.0, 1e3)), st.sampled_from((0.0, 1.0, 1e6)))
    def test_batch_norm_statistics_match_var(self, rows, width, seed, scale, offset):
        bundle = init_bundle("ndn", seed=seed, hidden_sizes=(width,))
        x = offset + scale * np.random.default_rng(seed).normal(size=(rows, 7))
        _, caches = forward(bundle, x, training=True)
        _, oracle = oracle_forward(init_bundle("ndn", seed=seed, hidden_sizes=(width,)), x)
        _, z_hat, inv_std, _ = oracle[0]
        assert np.array_equal(caches[0]["inv_std"], inv_std)
        assert np.array_equal(caches[0]["z_hat"], z_hat)


class TestTrainingCaches:
    """A training forward writes into the caches it is given and backward
    into their gradient arrays, as train does with the caches and gradient
    views it owns; they compute the bits of new arrays. The eval-mode
    validation pass keeps nothing."""

    def test_given_caches_give_the_bits_of_new_ones(self):
        rng = np.random.default_rng(81)
        kept, fresh = init_bundle("georesnn", seed=81), init_bundle("georesnn", seed=81)
        grads = [np.empty_like(p) for p in trainable_params(kept)]
        # A full batch, then a partial last batch.
        for n in (128, 44):
            given = net._training_caches(kept, n, grads)
            x1, x2 = rng.normal(size=(2, n, 11))
            d_out = rng.normal(size=n)
            results, caches = [], []
            for bundle, arg in ((kept, given), (fresh, None)):
                y1, first = forward(bundle, x1, training=True, caches=arg)
                y2, second = forward(bundle, x2, training=True, caches=arg)
                results.append([y1, y2, *backward(bundle, second, d_out)])
                caches.append((first, second))
            (kept_first, kept_second), (fresh_first, fresh_second) = caches
            assert kept_first is kept_second is given
            assert fresh_first is not fresh_second
            assert all(a is b for a, b in zip(results[0][2:], grads, strict=True))
            for a, b in zip(*results, strict=True):
                assert a.tobytes() == b.tobytes()

    def test_eval_output_outlives_the_next_call(self, monkeypatch):
        rows = synthetic_rows(200, seed=82)
        x1, x2 = (design_matrix([s.point for s in part], "georesnn")
                  for part in (rows[:60], rows[60:120]))
        bundle = init_bundle("georesnn", seed=82)
        checks = []

        def check():
            y1, _ = forward(bundle, x1)
            before = y1.copy()
            forward(bundle, x2)
            assert np.array_equal(y1, before)
            checks.append(True)

        check()
        step = net.adam_step

        def checked_step(*args, **kwargs):
            check()
            return step(*args, **kwargs)

        monkeypatch.setattr(net, "adam_step", checked_step)
        train(bundle, rows[:140], rows[140:], TrainConfig(epochs=1, seed=82))
        # Once before train, then once per step: a full and a partial batch.
        assert len(checks) == 3


class TestPredict:
    def test_zero_residual_network_reproduces_baseline(self):
        bundle = zero_output(init_bundle("georesnn", seed=31))
        for K in (0.9, 1.0, 1.2):
            p = SabrPoint(T=1.0, F0=1.0, K=K, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
            assert predict_vol(bundle, p) == hagan_vol(p)

    def test_constant_offset_is_multiplicative(self):
        bundle = zero_output(init_bundle("resnn", seed=32))
        bundle.layers[-1].b[:] = 0.05
        p = SabrPoint(T=1.0, F0=1.0, K=1.1, alpha=0.2, beta=0.5, rho=-0.8, nu=1.2)
        assert predict_vol(bundle, p) == pytest.approx(1.05 * hagan_vol(p), rel=1e-15)

    def test_residual_contract(self):
        bundle = init_bundle("georesnn", seed=33)
        rows = synthetic_rows(40, seed=33)
        points = [s.point for s in rows]
        x = design_matrix(points, "georesnn")
        raw, _ = forward(bundle, x, training=False)
        vols = predict_vols(bundle, points)
        hag = np.array([hagan_vol(s.point) for s in rows])
        np.testing.assert_allclose(vols / hag - 1.0, raw, rtol=0, atol=1e-15)

    def test_batch_equals_row_by_row(self):
        bundle = init_bundle("geonn", seed=34)
        rows = synthetic_rows(25, seed=34)
        batch = predict_from_rows(bundle, rows)
        single = np.array([predict_from_rows(bundle, [s])[0] for s in rows])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_direct_mode_returns_raw_output(self):
        bundle = init_bundle("ndn", seed=35)
        rows = synthetic_rows(10, seed=35)
        x = design_matrix([s.point for s in rows], "ndn")
        raw, _ = forward(bundle, x, training=False)
        np.testing.assert_array_equal(predict_from_rows(bundle, rows), raw)


class TestSingleAgainstBatch:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(ARCHS)), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, len(GRID_INDICES) - 1), min_size=1, max_size=16))
    def test_predict_vol_matches_predict_vols(self, loaded_models, arch, seed, grid):
        bundle = loaded_models[arch]
        rng = np.random.default_rng(seed)
        atm = GRID_INDICES.index(0.0)
        points = []
        for n in [*grid, atm]:
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            K = float(strike_grid(F0, alpha, T)[n])
            points.append(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu))
        assert points[-1].K == points[-1].F0
        batch = predict_vols(bundle, points)
        single = np.array([predict_vol(bundle, p) for p in points])
        # Relative to the largest vol: a direct-mode output near zero has no
        # relative precision of its own, and the one-row and batched
        # products sum in different orders.
        assert np.all(np.abs(single - batch) <= 1e-12 * np.max(np.abs(batch)))

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    @pytest.mark.parametrize("shape", ["tuple", "single", "all_atm"])
    def test_input_shapes(self, loaded_models, arch, shape):
        rng = np.random.default_rng(len(shape))
        points = []
        for n in range(len(GRID_INDICES)):
            T, F0, alpha, beta, rho, nu = sample_config(rng)
            K = F0 if shape == "all_atm" else float(strike_grid(F0, alpha, T)[n])
            points.append(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu))
        batch_in = {"tuple": tuple(points), "single": points[3:4], "all_atm": points}[shape]
        batch = predict_vols(loaded_models[arch], batch_in)
        single = np.array([predict_vol(loaded_models[arch], p) for p in batch_in])
        assert batch.shape == (len(batch_in),)
        assert np.all(np.abs(single - batch) <= 1e-12 * np.max(np.abs(batch)))

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_empty_batch_raises(self, loaded_models, arch):
        width = len(ARCHS[arch][1])
        with pytest.raises(ShapeMismatch, match=rf"got \(0, {width}\)"):
            predict_vols(loaded_models[arch], [])


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rows = synthetic_rows(150, seed=41)
        bundle = init_bundle("georesnn", seed=41)
        bundle, _ = train(bundle, rows[:100], rows[100:], TrainConfig(epochs=2, seed=41))
        path = tmp_path / "model.json"
        save_model(bundle, path)
        loaded = load_model(path)
        for pa, pb in zip(trainable_params(bundle), trainable_params(loaded)):
            np.testing.assert_array_equal(pa, pb)
        for la, lb in zip(bundle.layers, loaded.layers):
            if la.bn is not None:
                np.testing.assert_array_equal(la.bn.running_mean, lb.bn.running_mean)
                np.testing.assert_array_equal(la.bn.running_var, lb.bn.running_var)
        p = rows[0].point
        assert predict_vol(bundle, p) == predict_vol(loaded, p)

    def test_save_of_loaded_model_is_byte_identical(self, trained_rows, tmp_path):
        bundles, _ = trained_rows
        save_model(bundles["georesnn"], tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_saved_twice_byte_identical(self, tmp_path):
        bundle = init_bundle("resnn", seed=42)
        save_model(bundle, tmp_path / "a.json")
        save_model(bundle, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_manifest_recorded(self, tmp_path):
        bundle = init_bundle("ndn", seed=43)
        save_model(bundle, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["arch"] == "ndn"
        assert payload["target_mode"] == "direct"
        assert payload["manifest"]["init_seed"] == 43



def _edit(path, value=None, drop=False):
    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        if drop:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return edit


# One fault per model file; load_model must refuse each with ConfigError.
BROKEN_MODELS = {
    "no layers": _edit(["layers"], drop=True),
    "no manifest": _edit(["manifest"], drop=True),
    "manifest not an object": _edit(["manifest"], []),
    "wrong format": _edit(["format"], "sabrkit-model-v0"),
    "unknown arch": _edit(["arch"], "mlp"),
    "target mode against arch": _edit(["target_mode"], "direct"),
    "feature names against arch": _edit(["feature_names"], ["T", "F0", "K", "alpha", "beta", "rho", "nu"]),
    "unknown bracket": _edit(["hagan_bracket"], "banana"),
    # The formula such a model was trained against is no longer in the package.
    "denominator bracket": _edit(["hagan_bracket"], "denominator"),
    "shape chain": _edit(["layers", 1, "w"], [[0.0] * 64] * 63),
    "bias width": _edit(["layers", 3, "b"], [0.0] * 2),
    # Batch norm's shift is a hidden layer's only offset.
    "hidden layer with a bias": _edit(["layers", 0, "b"], [0.0] * 64),
    "v1 format": to_v1,
    "layer sizes": _edit(["layer_sizes"], [11, 64, 64, 1]),
    "ragged weights": _edit(["layers", 0, "w", 3], [0.0]),
    "text weight": _edit(["layers", 3, "w", 0], ["x"]),
    "non-finite weight": _edit(["layers", 2, "w", 0, 0], float("nan")),
    "batch norm on output": _edit(["layers", 3, "bn"], {"scale": [1.0]}),
    "hidden layer without batch norm": _edit(["layers", 1, "bn"], None),
    "batch norm without running_var": _edit(["layers", 2, "bn", "running_var"], drop=True),
    "negative eps": _edit(["layers", 0, "bn", "eps"], -1e-5),
    "negative running_var": _edit(["layers", 1, "bn", "running_var", 5], -1e-3),
    # Training runs batch norm at one momentum and eps; a file with others
    # describes a network this package does not train or run.
    "other momentum": _edit(["layers", 0, "bn", "momentum"], 0.2),
    "other eps": _edit(["layers", 2, "bn", "eps"], 1e-3),
    "zero x_std": _edit(["x_std", 4], 0.0),
    "short x_mean": _edit(["x_mean"], [0.0] * 7),
}


class TestLoadValidation:
    @pytest.mark.parametrize("fault", sorted(BROKEN_MODELS))
    def test_broken_model_rejected(self, tmp_path, fault):
        save_model(init_bundle("georesnn", seed=61), tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        BROKEN_MODELS[fault](payload)
        (tmp_path / "m.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="m.json"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", "null"])
    def test_non_model_json_rejected(self, tmp_path, text):
        (tmp_path / "m.json").write_text(text)
        with pytest.raises(ConfigError):
            load_model(tmp_path / "m.json")

    def test_untouched_model_loads(self, tmp_path):
        save_model(init_bundle("georesnn", seed=61), tmp_path / "m.json")
        assert load_model(tmp_path / "m.json").arch == "georesnn"
