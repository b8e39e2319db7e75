"""Dense feed-forward networks for smile correction, implemented directly
on numpy: forward pass, batch normalization, backpropagation, Adam, a
reduce-on-plateau schedule and best-weights early stopping.

Four architectures share one body (hidden sizes 64, 64, 32, each hidden
layer followed by batch norm and ReLU, scalar output):

    ndn       raw inputs,            predicts the vol directly
    geonn     raw + geometry inputs, predicts the vol directly
    resnn     raw inputs,            predicts sigma_mc/sigma_hagan - 1
    georesnn  raw + geometry inputs, predicts sigma_mc/sigma_hagan - 1

Residual architectures return sigma_hagan * (1 + output) from
:func:`predict_vol`, so an untrained zero network reproduces the closed
form exactly.

The raw and geometry inputs are the fields of ``SabrPoint`` and
``GeomFeatures`` in declared order; :func:`design_matrix` builds every batch
of them from the points. An arch fixes its target mode and inputs
(:data:`ARCHS`), so a :class:`ModelBundle` is an arch and its weights; batch
norm runs at the fixed :data:`BN_MOMENTUM` and :data:`BN_EPS`.

A hidden layer's only offset is its batch norm's shift; only the output
layer holds a bias. Training runs batch norm explicitly and keeps every
trainable array as a view of one parameter vector, so each optimizer step
is a single Adam update of that vector. Inference runs the folded network
(:func:`fold_layers`): standardization folds into the first layer, each
eval-mode batch norm into its dense layer, and each later layer's bias into
its matrix, read by a constant unit that the hidden layers carry, so that
after the first layer each layer is one matrix product and a ReLU.
:func:`load_model` and :func:`train` fold once and keep the result on the
bundle.

:func:`train` owns the arrays it reuses from step to step, and the bundle
holds no training state: the views of one gradient vector, and the caches
(:func:`_training_caches`) of the full and the last partial batch, which a
training :func:`forward` and :func:`backward` write with ``out=`` or in
place, in the operations and order of a call given none, so the bits are
the same. Adam keeps only its moments, and :func:`backward` reads the
ReLU's mask off the kept activation. Eval mode, the validation pass
included, runs in blocks of 128 rows and keeps no state; outputs are always
new arrays.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Sequence

import numpy as np

from .datagen import write_json
from .errors import ConfigError, Diverged, NonFinite, ShapeMismatch
from .geometry import GEOM_FIELDS, features, features_array, geom_values
from .hagan import HAGAN_BRACKET, SABR_FIELDS, SabrPoint, checked, hagan_vol, hagan_vols, sabr_values

__all__ = [
    "ARCHS",
    "BN_EPS",
    "BN_MOMENTUM",
    "AdamState",
    "BatchNorm",
    "DenseLayer",
    "ModelBundle",
    "PlateauScheduler",
    "TrainConfig",
    "adam_step",
    "design_matrix",
    "fold_layers",
    "forward",
    "init_bundle",
    "load_model",
    "predict_from_rows",
    "predict_vol",
    "predict_vols",
    "save_model",
    "train",
]

HIDDEN_SIZES = (64, 64, 32)

# arch name -> (target mode, input columns)
ARCHS = {
    "ndn": ("direct", SABR_FIELDS),
    "geonn": ("direct", SABR_FIELDS + GEOM_FIELDS),
    "resnn": ("residual_ratio", SABR_FIELDS),
    "georesnn": ("residual_ratio", SABR_FIELDS + GEOM_FIELDS),
}

# Batch-norm running-statistics momentum and variance floor.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Adam at the defaults of Kingma & Ba (2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The learning rate halves after 5 epochs without a 1e-6 relative
# improvement of the validation loss.
PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 5
PLATEAU_RTOL = 1e-6


@dataclass
class TrainConfig:
    lr0: float = 4e-3
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.lr0 < math.inf or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("lr0, batch_size and epochs must be finite and positive")


@dataclass
class BatchNorm:
    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class DenseLayer:
    """A hidden layer holds ``w`` and its batch norm, whose shift is its only
    offset (Ioffe & Szegedy 2015, section 3.2); the output layer holds ``b``."""

    w: np.ndarray
    b: np.ndarray | None = None
    bn: BatchNorm | None = None


@dataclass
class ModelBundle:
    arch: str
    layers: list[DenseLayer]
    x_mean: np.ndarray
    x_std: np.ndarray
    manifest: dict = field(default_factory=dict)
    # The eval-mode network as fold_layers returns it, set by load_model and
    # train and dropped by a training-mode forward; None means forward folds
    # on every call.
    folded: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def target_mode(self) -> str:
        return ARCHS[self.arch][0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return ARCHS[self.arch][1]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].w.shape[0]] + [lay.w.shape[1] for lay in self.layers]


def _training_caches(bundle: ModelBundle, n: int, grads=None) -> list[dict]:
    """Unfilled caches for a training forward of ``n`` rows, one per layer.

    A hidden layer's cache holds its input ``x`` (the standardized rows, or
    the previous layer's activation), ``z_hat`` (z, then z - mu, then z_hat,
    in place), a scratch array ``tmp`` and ``d_a``, the gradient wrt its
    activation that :func:`backward` receives; its activation is the next
    cache's ``x``, whose positive entries are the ReLU's mask, and
    :func:`forward` adds the batch's ``inv_std``. The output layer's cache
    holds its input. Each cache's ``grads``, which :func:`backward` fills,
    are its layer's arrays of ``grads`` (in :func:`trainable_params` order),
    or new arrays.
    """
    if grads is None:
        grads = [np.empty_like(p) for p in trainable_params(bundle)]
    grads = iter(grads)
    x = np.empty((n, bundle.layers[0].w.shape[0]))
    caches = []
    for layer in bundle.layers[:-1]:
        shape = (n, layer.w.shape[1])
        caches.append({"x": x, "z_hat": np.empty(shape), "tmp": np.empty(shape),
                       "d_a": np.empty(shape), "grads": list(islice(grads, 3))})
        x = np.empty(shape)
    caches.append({"x": x, "grads": list(islice(grads, 2))})
    return caches


# Rows per block of an eval-mode forward. A hidden activation of 1,024 rows
# (1,024 x 65 x 8 B = 532 KB) is above glibc's 128 KB mmap threshold, so each
# call mapped, faulted in and zeroed fresh pages. On a 2-vCPU VM
# (OPENBLAS_NUM_THREADS=1, q25 of 200 repetitions), the forward of 1,024
# georesnn rows took 715-721 us as one matrix and 378-379 us in 128-row
# blocks, against 431-435 us in 64-row and 403-405 us in 256-row blocks.
_EVAL_ROWS = 128


def _eval_chain(x: np.ndarray, w0: np.ndarray, b0: np.ndarray, rest) -> np.ndarray:
    a = np.dot(x, w0)
    a += b0
    for w in rest:
        np.maximum(a, 0.0, out=a)
        a = np.dot(a, w)
    return a[:, 0]


def init_bundle(
    arch: str,
    seed: int = 0,
    hidden_sizes: Sequence[int] = HIDDEN_SIZES,
) -> ModelBundle:
    """Fresh bundle with He-uniform weights, a zero output bias and identity
    batch-norm and standardization."""
    if arch not in ARCHS:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {sorted(ARCHS)}")
    n_inputs = len(ARCHS[arch][1])
    sizes = [n_inputs, *hidden_sizes, 1]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        if i < len(sizes) - 2:
            layers.append(DenseLayer(w=w, bn=BatchNorm(
                scale=np.ones(fan_out), shift=np.zeros(fan_out),
                running_mean=np.zeros(fan_out), running_var=np.ones(fan_out))))
        else:
            layers.append(DenseLayer(w=w, b=np.zeros(fan_out)))
    return ModelBundle(
        arch=arch,
        layers=layers,
        x_mean=np.zeros(n_inputs),
        x_std=np.ones(n_inputs),
        manifest={"init_seed": seed},
    )


def fold_layers(bundle: ModelBundle) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The eval-mode network as ``(w0, b0, rest)``: the first layer's weights
    and bias, then one matrix per later layer, each layer but the last
    followed by ReLU.

    Standardization folds into the first layer and each batch norm, at its
    running statistics, into its dense layer (Ioffe & Szegedy 2015). A
    hidden layer's matrix is the block
    ``[[w*s, 0], [(b - mean)*s + shift, 1]]``, with ``s`` the scale over the
    running std and ``b`` zero, or ``-(x_mean / x_std) @ w`` on layer 0;
    the output layer's is ``[[w], [b]]``. So each bias after the first rides
    inside its matrix (the bias trick; Bishop 2006, section 5.1): ``b0``
    ends in a constant unit 1.0, which ReLU keeps at 1, every later matrix
    reads the unit in its last row, and every hidden one passes it on in
    its last column. Layer 0's matrix is returned split into ``w0`` and its
    last row ``b0``. A network with no hidden layer is the plain pair
    ``(w, b)`` and no rest.
    """
    mats = []
    for i, layer in enumerate(bundle.layers):
        w, bn = layer.w, layer.bn
        b = layer.b if bn is None else 0.0
        if i == 0:
            b = b - (bundle.x_mean / bundle.x_std) @ w
            w = w / bundle.x_std[:, None]
        if bn is None:
            m = np.vstack((w, b))
        else:
            s = bn.scale * (1.0 / np.sqrt(bn.running_var + BN_EPS))
            m = np.zeros((w.shape[0] + 1, w.shape[1] + 1))
            m[:-1, :-1] = w * s
            m[-1, :-1] = (b - bn.running_mean) * s + bn.shift
            m[-1, -1] = 1.0
        mats.append(m)
    return mats[0][:-1], mats[0][-1], tuple(mats[1:])


def forward(bundle: ModelBundle, x: np.ndarray, training: bool = False, caches=None):
    """Network output for a batch of raw (unstandardized) feature rows.

    Returns ``(outputs, caches)``; outputs are always new arrays. Training
    mode normalizes with batch statistics, updates the running ones, drops
    the bundle's folded network and writes the intermediates
    :func:`backward` needs into ``caches`` (:func:`_training_caches` of this
    batch size, which :func:`train` reuses from step to step), or into new
    ones if None. Eval mode runs the folded network (:func:`fold_layers`),
    the bundle's stored one when it has one: a matrix product and bias add
    for the first layer, then a ReLU and one matrix product for each later
    layer, in blocks of 128 rows from row 0 (a lone last row joins the
    block before it), so it keeps no state and its memory does not grow
    with the batch. It returns None for the caches.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeMismatch(f"expected a (batch, features) matrix, got {x.shape!r}")
    n_inputs = bundle.layers[0].w.shape[0]
    if x.shape[1] != n_inputs:
        raise ShapeMismatch(f"arch {bundle.arch!r} expects {n_inputs} features, got {x.shape[1]}")
    n = x.shape[0]
    if not training:
        w0, b0, rest = bundle.folded if bundle.folded is not None else fold_layers(bundle)
        if n <= _EVAL_ROWS:
            return _eval_chain(x, w0, b0, rest), None
        # Equal-size blocks, or a one-row last block, would change the bits:
        # a row's products sum by its place in the BLAS kernel's tiles.
        y = np.empty(n)
        ends = [*range(0, n - 1, _EVAL_ROWS), n]
        for start, end in zip(ends, ends[1:]):
            y[start:end] = _eval_chain(x[start:end], w0, b0, rest)
        return y, None
    bundle.folded = None
    if caches is None:
        caches = _training_caches(bundle, n)
    a = np.subtract(x, bundle.x_mean, out=caches[0]["x"])
    a /= bundle.x_std
    for layer, cache, after in zip(bundle.layers[:-1], caches, caches[1:]):
        z, tmp = cache["z_hat"], cache["tmp"]
        np.matmul(cache["x"], layer.w, out=z)
        bn = layer.bn
        mu = z.mean(axis=0)
        # The arithmetic of z.var(axis=0), with z - mu kept for z_hat.
        z -= mu
        var = np.multiply(z, z, out=tmp).sum(axis=0) / n
        unbiased = var * n / (n - 1) if n > 1 else var
        bn.running_mean = (1.0 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mu
        bn.running_var = (1.0 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * unbiased
        cache["inv_std"] = inv_std = 1.0 / np.sqrt(var + BN_EPS)
        z *= inv_std
        pre_act = np.multiply(bn.scale, z, out=tmp)
        pre_act += bn.shift
        np.maximum(pre_act, 0.0, out=after["x"])
    last = bundle.layers[-1]
    y = (caches[-1]["x"] @ last.w + last.b)[:, 0]
    return y, caches


def backward(bundle: ModelBundle, caches: list, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar objective wrt every trainable array.

    ``d_out`` is the objective's gradient per output row. Each call
    overwrites the caches' ``grads`` and returns them in
    :func:`trainable_params` order. The full-batch intermediates go into the
    caches' ``d_a`` and ``tmp`` arrays, so the caches of a training
    :func:`forward` serve one backward. The gradient wrt the network's input
    is not formed.
    """
    d_a = d_out[:, None]
    for i in range(len(bundle.layers) - 1, -1, -1):
        layer, cache = bundle.layers[i], caches[i]
        bn, grads = layer.bn, cache["grads"]
        if bn is None:
            d_z = d_a
            d_z.sum(axis=0, out=grads[1])
        else:
            # d_a becomes d_pre, then d_zhat, in place; tmp takes each
            # full-batch product, then d_z.
            z_hat, d_z = cache["z_hat"], cache["tmp"]
            # The activation is > 0 exactly where the pre-activation is.
            d_a *= caches[i + 1]["x"] > 0.0
            np.multiply(d_a, z_hat, out=d_z).sum(axis=0, out=grads[1])
            d_a.sum(axis=0, out=grads[2])
            d_a *= bn.scale
            n = d_a.shape[0]
            # d_z = (inv_std / n) * (n * d_zhat - d_zhat.sum(axis=0)
            #                        - z_hat * (d_zhat * z_hat).sum(axis=0))
            col_sum = d_a.sum(axis=0)
            proj = np.multiply(d_a, z_hat, out=d_z).sum(axis=0)
            np.multiply(n, d_a, out=d_z)
            d_z -= col_sum
            d_z -= np.multiply(z_hat, proj, out=d_a)
            np.multiply(cache["inv_std"] / n, d_z, out=d_z)
        np.matmul(cache["x"].T, d_z, out=grads[0])
        if i:
            d_a = np.matmul(d_z, layer.w.T, out=caches[i - 1]["d_a"])
    return [g for cache in caches for g in cache["grads"]]


def trainable_params(bundle: ModelBundle) -> list[np.ndarray]:
    """Flat parameter list in the order used by :func:`backward`: each hidden
    layer's ``w``, ``bn.scale`` and ``bn.shift``, then the output ``w`` and ``b``."""
    return [p for layer in bundle.layers for p in (
        (layer.w, layer.b) if layer.bn is None else (layer.w, layer.bn.scale, layer.bn.shift))]


def _flatten_params(bundle: ModelBundle) -> np.ndarray:
    """Copy the trainable arrays into one vector, in :func:`trainable_params`
    order, and rebind each as a reshaped view of it, so that one Adam update
    of the vector updates them all. Returns that vector."""
    params = trainable_params(bundle)
    theta = np.concatenate([p.reshape(-1) for p in params])
    theta_views = iter(_views(theta, params))
    for layer in bundle.layers:
        layer.w = next(theta_views)
        if layer.bn is None:
            layer.b = next(theta_views)
        else:
            layer.bn.scale, layer.bn.shift = next(theta_views), next(theta_views)
    return theta


def _views(flat: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive slices of ``flat``, each reshaped like its array."""
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def targets(samples, target_mode: str) -> np.ndarray:
    """Training targets for a list of dataset rows."""
    mc = np.array([s.sigma_mc for s in samples])
    if target_mode == "direct":
        return mc
    hag = np.array([s.sigma_hagan for s in samples])
    if np.any(hag <= 0.0):
        raise ConfigError("residual targets need sigma_hagan > 0 on every row")
    return mc / hag - 1.0


def design_matrix(points: Sequence[SabrPoint], arch: str) -> np.ndarray:
    """The inputs of ``arch`` for a batch of points, one row each: a column
    per point field, then on the geometry archs the features_array columns
    of those, DomainError at a NaN row (:func:`~sabrkit.hagan.checked`). The
    one builder of batched inputs, for :func:`train` and :func:`predict_vols`."""
    names = ARCHS[arch][1]
    n, k = len(points), len(SABR_FIELDS)
    x = np.empty((n, len(names)))
    for j, name in enumerate(SABR_FIELDS):
        x[:, j] = np.fromiter(map(attrgetter(name), points), float, n)
    if len(names) > k:
        x[:, k:] = checked(features_array(*x[:, :k].T), "feature quadruple")
    return x


@dataclass
class AdamState:
    """Adam's first and second moment estimates and its step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray,
              lr: float) -> AdamState:
    """One bias-corrected Adam update (Kingma & Ba 2015), applied to
    ``theta`` and the state's moments in place.

    :func:`train` passes its one parameter vector and the gradient vector
    of the same layout, which :func:`backward` fills.
    """
    if not np.all(np.isfinite(grad)):
        raise NonFinite("non-finite gradient")
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1**state.t
    correct2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return state


@dataclass
class PlateauScheduler:
    """Halve-on-plateau learning-rate schedule.

    An epoch improves when its validation loss beats the best seen by the
    relative margin ``PLATEAU_RTOL``; after ``PLATEAU_PATIENCE`` consecutive
    non-improving epochs the rate is multiplied by ``PLATEAU_FACTOR`` and
    the counter restarts.
    """

    lr: float
    best: float | None = None
    bad_epochs: int = 0

    def step(self, val_loss: float) -> float:
        if self.best is None or val_loss < self.best * (1.0 - PLATEAU_RTOL):
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= PLATEAU_PATIENCE:
                self.lr *= PLATEAU_FACTOR
                self.bad_epochs = 0
        return self.lr


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


def train(
    bundle: ModelBundle,
    train_samples,
    val_samples,
    cfg: TrainConfig,
) -> tuple[ModelBundle, list[EpochRecord]]:
    """Fit the bundle; returns it carrying the best-validation weights and
    their folded eval-mode stack.

    Standardization is fitted on the training split only; a feature constant
    there keeps a unit scale. Batches are reshuffled each epoch from a
    dedicated seeded generator and the last partial batch is kept, so runs
    are reproducible given the config seed. Its gradient views and the
    caches of its full and last partial batch are its own.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and validation splits must be non-empty")
    x_train = design_matrix([s.point for s in train_samples], bundle.arch)
    y_train = targets(train_samples, bundle.target_mode)
    x_val = design_matrix([s.point for s in val_samples], bundle.arch)
    y_val = targets(val_samples, bundle.target_mode)

    bundle.x_mean = x_train.mean(axis=0)
    # Constant features (single-tenor sets) keep a unit scale, so a point
    # off the constant is not scaled by 1/std.
    x_std = x_train.std(axis=0)
    bundle.x_std = np.where(x_std > 1e-12, x_std, 1.0)

    theta = _flatten_params(bundle)
    grad = np.empty_like(theta)
    adam = AdamState.for_params(theta)
    scheduler = PlateauScheduler(lr=cfg.lr0)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))

    history: list[EpochRecord] = []
    best_val = math.inf
    best_epoch = 0
    best_layers = copy.deepcopy(bundle.layers)
    n = len(train_samples)
    grads = _views(grad, trainable_params(bundle))
    kept = {rows: _training_caches(bundle, rows, grads)
            for rows in {min(cfg.batch_size, n), (n - 1) % cfg.batch_size + 1}}
    lr = cfg.lr0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            pred, caches = forward(bundle, x_train[idx], training=True, caches=kept[idx.size])
            err = pred - y_train[idx]
            sq_sum += float(err @ err)
            backward(bundle, caches, 2.0 * err / err.size)
            adam_step(adam, theta, grad, lr)
        train_loss = sq_sum / n
        val_pred, _ = forward(bundle, x_val, training=False)
        # Overflow to inf is the divergence signal, not a numerics bug.
        with np.errstate(over="ignore"):
            val_loss = float(np.mean((val_pred - y_val) ** 2))
        if not math.isfinite(val_loss):
            raise Diverged(f"validation loss became {val_loss!r} at epoch {epoch}")
        lr = scheduler.step(val_loss)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_loss=val_loss, lr=lr))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_layers = copy.deepcopy(bundle.layers)
    bundle.layers = best_layers
    bundle.manifest.update({
        "train_seed": cfg.seed,
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "epochs_run": cfg.epochs,
        "lr0": cfg.lr0,
        "batch_size": cfg.batch_size,
        "train_rows": len(train_samples),
        "val_rows": len(val_samples),
    })
    bundle.folded = fold_layers(bundle)
    return bundle, history


def predict_vols(bundle: ModelBundle, points: Sequence[SabrPoint]) -> np.ndarray:
    """Corrected implied vols for a batch of pricing configurations.

    Residual modes return sigma_hagan * (1 + network output); direct modes
    return the raw output. The inputs of one :func:`forward` come from
    :func:`design_matrix`, and :func:`~sabrkit.hagan.hagan_vols` takes its
    parameter columns whole. Raises DomainError at the first point where
    the features or the closed form are NaN (:func:`~sabrkit.hagan.checked`).
    """
    x = design_matrix(points, bundle.arch)
    out, _ = forward(bundle, x, training=False)
    if bundle.target_mode == "residual_ratio":
        return checked(hagan_vols(*x[:, :len(SABR_FIELDS)].T), "closed form") * (1.0 + out)
    return out


def predict_vol(bundle: ModelBundle, p: SabrPoint) -> float:
    """Corrected implied vol for one pricing configuration, through the
    scalar formulas and a one-row :func:`forward`. It agrees with its entry
    in :func:`predict_vols` on any batch holding ``p`` to within 1e-12 times
    the largest |vol| in that batch: the formulas' forms differ by ulps, the
    products sum in different orders, and a direct output can lie near 0."""
    target_mode, names = ARCHS[bundle.arch]
    row = sabr_values(p)
    if len(names) > len(SABR_FIELDS):
        row += geom_values(features(p))
    out = forward(bundle, np.array([row]), training=False)[0][0]
    if target_mode == "residual_ratio":
        return float(hagan_vol(p) * (1.0 + out))
    return float(out)


def predict_from_rows(bundle: ModelBundle, samples) -> np.ndarray:
    """:func:`predict_vols` of the dataset rows' points: the stored
    closed-form and feature columns are not read."""
    return predict_vols(bundle, [s.point for s in samples])


MODEL_FORMAT = "sabrkit-model-v2"
_MODEL_KEYS = ("arch", "target_mode", "feature_names", "layer_sizes", "hagan_bracket",
               "x_mean", "x_std", "layers", "manifest")
_BN_ARRAYS = ("scale", "shift", "running_mean", "running_var")


def save_model(bundle: ModelBundle, path) -> None:
    """Serialize a bundle to JSON with full float precision, through
    :func:`~sabrkit.datagen.write_json`."""
    payload = {
        "format": MODEL_FORMAT,
        "arch": bundle.arch,
        "target_mode": bundle.target_mode,
        "feature_names": list(bundle.feature_names),
        "layer_sizes": bundle.layer_sizes,
        "hagan_bracket": HAGAN_BRACKET,
        "x_mean": bundle.x_mean.tolist(),
        "x_std": bundle.x_std.tolist(),
        "layers": [
            {"w": layer.w.tolist(), "b": layer.b.tolist()} if layer.bn is None else {
                "w": layer.w.tolist(),
                "bn": {
                    "scale": layer.bn.scale.tolist(),
                    "shift": layer.bn.shift.tolist(),
                    "running_mean": layer.bn.running_mean.tolist(),
                    "running_var": layer.bn.running_var.tolist(),
                    "momentum": BN_MOMENTUM,
                    "eps": BN_EPS,
                },
            }
            for layer in bundle.layers
        ],
        "manifest": bundle.manifest,
    }
    write_json(path, payload)


def _finite_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} is not a numeric array") from None
    if arr.shape != shape:
        raise ConfigError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} holds a non-finite value")
    return arr


def _bundle_from_payload(payload) -> ModelBundle:
    """A bundle from a parsed model file, checked so that it can be folded
    and run: keys, the layer-shape chain, the names against the arch, each
    layer's exact keys (``w`` and ``bn`` on a hidden layer, ``w`` and ``b``
    on the output layer), finite arrays and positive scales."""
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ConfigError(f"not a {MODEL_FORMAT} model file")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ConfigError(f"model file lacks {', '.join(missing)}")
    arch = payload["arch"]
    if not isinstance(arch, str) or arch not in ARCHS:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {sorted(ARCHS)}")
    target_mode, names = ARCHS[arch]
    if payload["target_mode"] != target_mode:
        raise ConfigError(f"target_mode {payload['target_mode']!r} does not match arch {arch!r}")
    if payload["feature_names"] != list(names):
        raise ConfigError(f"feature_names do not match arch {arch!r}")
    if payload["hagan_bracket"] != HAGAN_BRACKET:
        raise ConfigError(f"hagan_bracket must be {HAGAN_BRACKET!r}, the one Hagan "
                          f"baseline; got {payload['hagan_bracket']!r}")
    if not isinstance(payload["manifest"], dict):
        raise ConfigError("manifest must be an object")
    items, sizes = payload["layers"], payload["layer_sizes"]
    if (not isinstance(items, list) or not items or not isinstance(sizes, list)
            or len(sizes) != len(items) + 1
            or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in sizes)
            or sizes[0] != len(names) or sizes[-1] != 1):
        raise ConfigError(f"layer_sizes must run from {len(names)} inputs to 1 output, "
                          "one step per layer")
    layers = []
    for i, item in enumerate(items):
        where = f"layer {i}"
        width = sizes[i + 1]
        keys = ("w", "b") if i == len(items) - 1 else ("w", "bn")
        if not isinstance(item, dict) or item.keys() != set(keys):
            raise ConfigError(f"{where} must hold exactly {' and '.join(keys)}")
        w = _finite_array(item["w"], (sizes[i], width), f"{where} w")
        if "b" in item:
            layers.append(DenseLayer(w=w, b=_finite_array(item["b"], (width,), f"{where} b")))
            continue
        raw = item["bn"]
        if not isinstance(raw, dict) or not {*_BN_ARRAYS, "momentum", "eps"} <= raw.keys():
            raise ConfigError(f"{where} bn needs {', '.join(_BN_ARRAYS)}, momentum and eps")
        arrays = {key: _finite_array(raw[key], (width,), f"{where} bn {key}")
                  for key in _BN_ARRAYS}
        if raw["momentum"] != BN_MOMENTUM or raw["eps"] != BN_EPS:
            raise ConfigError(f"{where} bn momentum and eps must be {BN_MOMENTUM} and "
                              f"{BN_EPS}; got {raw['momentum']!r} and {raw['eps']!r}")
        if np.any(arrays["running_var"] < 0.0):
            raise ConfigError(f"{where} bn needs running_var >= 0")
        layers.append(DenseLayer(w=w, bn=BatchNorm(**arrays)))
    x_mean = _finite_array(payload["x_mean"], (len(names),), "x_mean")
    x_std = _finite_array(payload["x_std"], (len(names),), "x_std")
    if np.any(x_std <= 0.0):
        raise ConfigError("x_std must be positive")
    return ModelBundle(
        arch=arch,
        layers=layers,
        x_mean=x_mean,
        x_std=x_std,
        manifest=payload["manifest"],
    )


def load_model(path) -> ModelBundle:
    """Read a model file written by :func:`save_model`.

    The file is checked first (ConfigError, naming the file, on any fault,
    including JSON nested too deeply to parse);
    the bundle then carries its folded eval-mode stack, so in-place edits
    of its arrays are not seen by prediction until it is retrained or
    reloaded.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not a JSON file ({exc})") from None
    try:
        bundle = _bundle_from_payload(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    bundle.folded = fold_layers(bundle)
    return bundle
