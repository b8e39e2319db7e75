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

Training runs batch norm explicitly and keeps every trainable array as a
view of one parameter vector, so each optimizer step is a single Adam
update of that vector. Inference runs the network as plain affine layers
(:func:`fold_layers`): standardization folds into the first layer and each
eval-mode batch norm into its dense layer. :func:`load_model` and
:func:`train` fold once and keep the result on the bundle.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import ConfigError, Diverged, NonFinite, ShapeMismatch
from .geometry import features, features_array
from .hagan import HAGAN_BRACKET, SabrPoint, hagan_vol, hagan_vols

__all__ = [
    "ARCHS",
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

RAW_FEATURES = ("T", "F0", "K", "alpha", "beta", "rho", "nu")
GEOM_FEATURES = ("q", "sigma_min", "d_h", "sigma0")
HIDDEN_SIZES = (64, 64, 32)

TARGET_MODES = ("direct", "residual_ratio")

# arch name -> (target mode, uses geometry features)
ARCHS = {
    "ndn": ("direct", False),
    "geonn": ("direct", True),
    "resnn": ("residual_ratio", False),
    "georesnn": ("residual_ratio", True),
}

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
        if self.lr0 <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("lr0, batch_size and epochs must be positive")


@dataclass
class BatchNorm:
    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5


@dataclass
class DenseLayer:
    w: np.ndarray
    b: np.ndarray
    bn: BatchNorm | None = None


@dataclass
class ModelBundle:
    arch: str
    target_mode: str
    feature_names: tuple[str, ...]
    layers: list[DenseLayer]
    x_mean: np.ndarray
    x_std: np.ndarray
    manifest: dict = field(default_factory=dict)
    # The eval-mode network as affine layers, set by load_model and train and
    # dropped by a training-mode forward; None means forward folds on every
    # call.
    folded: list[tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].w.shape[0]] + [lay.w.shape[1] for lay in self.layers]


def feature_names_for(arch: str) -> tuple[str, ...]:
    target_mode, use_geometry = _arch_spec(arch)
    return RAW_FEATURES + GEOM_FEATURES if use_geometry else RAW_FEATURES


def _arch_spec(arch: str) -> tuple[str, bool]:
    try:
        return ARCHS[arch]
    except KeyError:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {sorted(ARCHS)}") from None


def init_bundle(
    arch: str,
    seed: int = 0,
    hidden_sizes: Sequence[int] = HIDDEN_SIZES,
) -> ModelBundle:
    """Fresh bundle with He-uniform weights, zero biases and identity
    batch-norm and standardization."""
    target_mode, use_geometry = _arch_spec(arch)
    names = RAW_FEATURES + GEOM_FEATURES if use_geometry else RAW_FEATURES
    sizes = [len(names), *hidden_sizes, 1]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        bn = None
        if i < len(sizes) - 2:
            bn = BatchNorm(
                scale=np.ones(fan_out),
                shift=np.zeros(fan_out),
                running_mean=np.zeros(fan_out),
                running_var=np.ones(fan_out),
            )
        layers.append(DenseLayer(w=w, b=b, bn=bn))
    return ModelBundle(
        arch=arch,
        target_mode=target_mode,
        feature_names=names,
        layers=layers,
        x_mean=np.zeros(len(names)),
        x_std=np.ones(len(names)),
        manifest={"init_seed": seed},
    )


def fold_layers(bundle: ModelBundle) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eval-mode network as affine layers ``(w, b)``, each hidden one
    followed by ReLU.

    Standardization folds into the first layer and each batch norm, at its
    running statistics, into its dense layer (Ioffe & Szegedy 2015).
    """
    stack = []
    for i, layer in enumerate(bundle.layers):
        w, b = layer.w, layer.b
        if i == 0:
            b = b - (bundle.x_mean / bundle.x_std) @ w
            w = w / bundle.x_std[:, None]
        bn = layer.bn
        if bn is not None:
            s = bn.scale * (1.0 / np.sqrt(bn.running_var + bn.eps))
            w = w * s
            b = (b - bn.running_mean) * s + bn.shift
        stack.append((w, b))
    return stack


def forward(bundle: ModelBundle, x: np.ndarray, training: bool = False):
    """Network output for a batch of raw (unstandardized) feature rows.

    Returns ``(outputs, caches)``. Training mode normalizes with batch
    statistics, updates the running ones, drops the bundle's folded stack
    and returns the intermediates :func:`backward` needs. Eval mode runs
    the folded stack (:func:`fold_layers`), the bundle's stored one when
    it has one, and returns None for the caches.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeMismatch(f"expected a (batch, features) matrix, got {x.shape!r}")
    if x.shape[1] != len(bundle.feature_names):
        raise ShapeMismatch(
            f"arch {bundle.arch!r} expects {len(bundle.feature_names)} features, "
            f"got {x.shape[1]}"
        )
    if not training:
        stack = bundle.folded if bundle.folded is not None else fold_layers(bundle)
        a = x
        for w, b in stack[:-1]:
            a = a @ w
            a += b
            np.maximum(a, 0.0, out=a)
        w, b = stack[-1]
        return (a @ w + b)[:, 0], None
    bundle.folded = None
    a = (x - bundle.x_mean) / bundle.x_std
    caches = []
    for layer in bundle.layers[:-1]:
        z = a @ layer.w + layer.b
        bn = layer.bn
        n = z.shape[0]
        mu = z.mean(axis=0)
        # The arithmetic of z.var(axis=0), with z - mu kept for z_hat.
        d = z - mu
        var = (d * d).sum(axis=0) / n
        unbiased = var * n / (n - 1) if n > 1 else var
        bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mu
        bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * unbiased
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        z_hat = d * inv_std
        pre_act = bn.scale * z_hat + bn.shift
        out = np.maximum(pre_act, 0.0)
        caches.append({"x": a, "z_hat": z_hat, "inv_std": inv_std, "mask": pre_act > 0.0})
        a = out
    last = bundle.layers[-1]
    y = (a @ last.w + last.b)[:, 0]
    caches.append({"x": a})
    return y, caches


def backward(bundle: ModelBundle, caches: list, d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar objective wrt every trainable array.

    ``d_out`` is the objective's gradient per output row. The returned list
    matches :func:`trainable_params` element by element. The gradient wrt
    the network's input is not formed.
    """
    grads: list[np.ndarray] = []
    d_a = d_out[:, None]
    for i in range(len(bundle.layers) - 1, -1, -1):
        layer, cache = bundle.layers[i], caches[i]
        bn = layer.bn
        if bn is None:
            d_z = d_a
            layer_grads = [cache["x"].T @ d_z, d_z.sum(axis=0)]
        else:
            d_pre = d_a * cache["mask"]
            d_scale = (d_pre * cache["z_hat"]).sum(axis=0)
            d_shift = d_pre.sum(axis=0)
            d_zhat = d_pre * bn.scale
            n = d_zhat.shape[0]
            d_z = (cache["inv_std"] / n) * (
                n * d_zhat
                - d_zhat.sum(axis=0)
                - cache["z_hat"] * (d_zhat * cache["z_hat"]).sum(axis=0)
            )
            layer_grads = [cache["x"].T @ d_z, d_z.sum(axis=0), d_scale, d_shift]
        grads[:0] = layer_grads
        if i:
            d_a = d_z @ layer.w.T
    return grads


def trainable_params(bundle: ModelBundle) -> list[np.ndarray]:
    """Flat parameter list in the order used by :func:`backward`."""
    params: list[np.ndarray] = []
    for layer in bundle.layers:
        params.extend([layer.w, layer.b])
        if layer.bn is not None:
            params.extend([layer.bn.scale, layer.bn.shift])
    return params


def _flatten_params(bundle: ModelBundle) -> np.ndarray:
    """Copy the trainable arrays into one vector, in :func:`trainable_params`
    order, and rebind each as a reshaped view of it, so that one Adam update
    of the vector updates them all."""
    theta = np.concatenate([p.reshape(-1) for p in trainable_params(bundle)])
    offset = 0

    def view(arr: np.ndarray) -> np.ndarray:
        nonlocal offset
        out = theta[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
        return out

    for layer in bundle.layers:
        layer.w, layer.b = view(layer.w), view(layer.b)
        if layer.bn is not None:
            layer.bn.scale, layer.bn.shift = view(layer.bn.scale), view(layer.bn.shift)
    return theta


def targets(samples, target_mode: str) -> np.ndarray:
    """Training targets for a list of dataset rows."""
    if target_mode == "direct":
        return np.array([s.sigma_mc for s in samples])
    if target_mode == "residual_ratio":
        hag = np.array([s.sigma_hagan for s in samples])
        if np.any(hag <= 0.0):
            raise ConfigError("residual targets need sigma_hagan > 0 on every row")
        mc = np.array([s.sigma_mc for s in samples])
        return mc / hag - 1.0
    raise ConfigError(f"target_mode must be one of {TARGET_MODES}, got {target_mode!r}")


def design_matrix(samples, arch: str) -> np.ndarray:
    """Raw feature matrix for dataset rows (stored geometry columns reused)."""
    _, use_geometry = _arch_spec(arch)
    rows = np.empty((len(samples), 11 if use_geometry else 7))
    for i, s in enumerate(samples):
        p = s.point
        rows[i, :7] = (p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu)
        if use_geometry:
            f = s.feats
            rows[i, 7:] = (f.q, f.sigma_min, f.d_h, f.sigma0)
    return rows


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray,
              lr: float) -> AdamState:
    """One bias-corrected Adam update, applied to ``theta`` in place.

    :func:`train` passes its one parameter vector and the gradients
    concatenated in the same order.
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


def _snapshot_weights(bundle: ModelBundle) -> list[DenseLayer]:
    return copy.deepcopy(bundle.layers)


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
    are reproducible given the config seed.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and validation splits must be non-empty")
    x_train = design_matrix(train_samples, bundle.arch)
    y_train = targets(train_samples, bundle.target_mode)
    x_val = design_matrix(val_samples, bundle.arch)
    y_val = targets(val_samples, bundle.target_mode)

    bundle.x_mean = x_train.mean(axis=0)
    # Constant features (single-tenor sets) keep a unit scale, so a point
    # off the constant is not scaled by 1/std.
    x_std = x_train.std(axis=0)
    bundle.x_std = np.where(x_std > 1e-12, x_std, 1.0)

    theta = _flatten_params(bundle)
    adam = AdamState.for_params(theta)
    scheduler = PlateauScheduler(lr=cfg.lr0)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))

    history: list[EpochRecord] = []
    best_val = math.inf
    best_epoch = 0
    best_layers = _snapshot_weights(bundle)
    n = len(train_samples)
    lr = cfg.lr0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            pred, caches = forward(bundle, x_train[idx], training=True)
            err = pred - y_train[idx]
            sq_sum += float(err @ err)
            grads = backward(bundle, caches, 2.0 * err / err.size)
            adam_step(adam, theta, np.concatenate([g.reshape(-1) for g in grads]), lr)
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
            best_layers = _snapshot_weights(bundle)

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


_point_params = attrgetter(*RAW_FEATURES)


def predict_vols(bundle: ModelBundle, points: Sequence[SabrPoint]) -> np.ndarray:
    """Corrected implied vols for a batch of pricing configurations.

    Residual modes return sigma_hagan * (1 + network output); direct modes
    return the raw output. The points become one block of parameter
    columns, which the array formulas (:func:`~sabrkit.hagan.hagan_vols`,
    :func:`~sabrkit.geometry.features_array`) and one :func:`forward` take
    whole.
    """
    x = np.array([_point_params(p) for p in points], dtype=float).reshape(-1, len(RAW_FEATURES))
    cols = x.T
    if len(bundle.feature_names) > len(RAW_FEATURES):
        x = np.hstack((x, features_array(*cols)))
    out, _ = forward(bundle, x, training=False)
    if bundle.target_mode == "residual_ratio":
        return hagan_vols(*cols) * (1.0 + out)
    return out


def predict_vol(bundle: ModelBundle, p: SabrPoint) -> float:
    """Corrected implied vol for one pricing configuration, through the
    scalar formulas and a one-row :func:`forward`; equals
    :func:`predict_vols` on ``[p]`` to rounding."""
    row = [p.T, p.F0, p.K, p.alpha, p.beta, p.rho, p.nu]
    if len(bundle.feature_names) > len(RAW_FEATURES):
        f = features(p)
        row += (f.q, f.sigma_min, f.d_h, f.sigma0)
    out = forward(bundle, np.array([row]), training=False)[0][0]
    if bundle.target_mode == "residual_ratio":
        return float(hagan_vol(p) * (1.0 + out))
    return float(out)


def predict_from_rows(bundle: ModelBundle, samples) -> np.ndarray:
    """Vol predictions for dataset rows, reusing their stored feature columns."""
    x = design_matrix(samples, bundle.arch)
    out, _ = forward(bundle, x, training=False)
    if bundle.target_mode == "residual_ratio":
        hag = np.array([s.sigma_hagan for s in samples])
        return hag * (1.0 + out)
    return out


MODEL_FORMAT = "sabrkit-model-v1"
_MODEL_KEYS = ("arch", "target_mode", "feature_names", "layer_sizes", "hagan_bracket",
               "x_mean", "x_std", "layers", "manifest")
_BN_ARRAYS = ("scale", "shift", "running_mean", "running_var")


def save_model(bundle: ModelBundle, path) -> None:
    """Serialize a bundle to JSON with full float precision."""
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
            {
                "w": layer.w.tolist(),
                "b": layer.b.tolist(),
                "bn": None if layer.bn is None else {
                    "scale": layer.bn.scale.tolist(),
                    "shift": layer.bn.shift.tolist(),
                    "running_mean": layer.bn.running_mean.tolist(),
                    "running_var": layer.bn.running_var.tolist(),
                    "momentum": layer.bn.momentum,
                    "eps": layer.bn.eps,
                },
            }
            for layer in bundle.layers
        ],
        "manifest": bundle.manifest,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _finite_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def _bundle_from_payload(payload) -> ModelBundle:
    """A bundle from a parsed model file, checked so that it can be folded
    and run: keys, the layer-shape chain, the names against the arch, batch
    norm on exactly the hidden layers, finite arrays and positive scales."""
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ConfigError(f"not a {MODEL_FORMAT} model file")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ConfigError(f"model file lacks {', '.join(missing)}")
    arch = payload["arch"]
    if not isinstance(arch, str) or arch not in ARCHS:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {sorted(ARCHS)}")
    if payload["target_mode"] != ARCHS[arch][0]:
        raise ConfigError(f"target_mode {payload['target_mode']!r} does not match arch {arch!r}")
    names = feature_names_for(arch)
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
        if not isinstance(item, dict) or not {"w", "b", "bn"} <= item.keys():
            raise ConfigError(f"{where} needs w, b and bn")
        width = sizes[i + 1]
        w = _finite_array(item["w"], (sizes[i], width), f"{where} w")
        b = _finite_array(item["b"], (width,), f"{where} b")
        raw = item["bn"]
        hidden = i < len(items) - 1
        if (raw is None) == hidden:
            raise ConfigError(f"{where}: batch norm belongs on every hidden layer "
                              "and not on the output layer")
        bn = None
        if hidden:
            if not isinstance(raw, dict) or not {*_BN_ARRAYS, "momentum", "eps"} <= raw.keys():
                raise ConfigError(f"{where} bn needs {', '.join(_BN_ARRAYS)}, momentum and eps")
            arrays = {key: _finite_array(raw[key], (width,), f"{where} bn {key}")
                      for key in _BN_ARRAYS}
            eps = _finite_number(raw["eps"], f"{where} bn eps")
            if eps <= 0.0 or np.any(arrays["running_var"] < 0.0):
                raise ConfigError(f"{where} bn needs eps > 0 and running_var >= 0")
            bn = BatchNorm(**arrays, momentum=_finite_number(raw["momentum"], f"{where} bn momentum"),
                           eps=eps)
        layers.append(DenseLayer(w=w, b=b, bn=bn))
    x_mean = _finite_array(payload["x_mean"], (len(names),), "x_mean")
    x_std = _finite_array(payload["x_std"], (len(names),), "x_std")
    if np.any(x_std <= 0.0):
        raise ConfigError("x_std must be positive")
    return ModelBundle(
        arch=arch,
        target_mode=payload["target_mode"],
        feature_names=names,
        layers=layers,
        x_mean=x_mean,
        x_std=x_std,
        manifest=payload["manifest"],
    )


def load_model(path) -> ModelBundle:
    """Read a model file written by :func:`save_model`.

    The file is checked first (ConfigError, naming the file, on any fault);
    the bundle then carries its folded eval-mode stack, so in-place edits
    of its arrays are not seen by prediction until it is retrained or
    reloaded.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not a JSON file ({exc})") from None
    try:
        bundle = _bundle_from_payload(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    bundle.folded = fold_layers(bundle)
    return bundle
