"""The benchmark's three workloads, each driven through sabrkit's public
functions from one process.

generate  one smile per tenor at the desk budget of 20k paths, built with
          ``datagen.build_dataset`` (one worker), then filtered, split and
          saved. Stresses ``mc``; ``net`` is never called.
train     ``load_dataset`` on a CSV written in set-up, then ``train`` of all
          four architectures at batch 128, ``evaluate_model`` on the test
          split and ``save_model``. Stresses ``net`` training; the targets are
          synthesized, so ``mc`` is never called.
infer     a closed loop of single-point ``predict_vol`` calls (one client,
          no think time), then ``predict_vols`` on batches of 1024 points.
          Stresses ``net.forward`` at both sizes, plus ``hagan`` and
          ``geometry``.

A workload's timed unit is a *round* of fixed work made from the seed; the
run repeats the same round until its time is up, so outputs must repeat
byte for byte from round to round. A round is timed in short pieces, and
each piece is reported by the upper quartile of its repetitions
(``loaded``).
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

from sabrkit import datagen, evaluation, geometry, hagan, mc, net, pricing
from sabrkit.errors import DomainError, NegativeVol, SabrkitError
from sabrkit.geometry import GeomFeatures
from sabrkit.hagan import SabrPoint

PATHS = 20_000
BATCH_SIZE = 128
SPLIT_NAMES = ("train", "val", "test")
_NAN = float("nan")


def loaded(values, axis=None):
    """The upper quartile of the repetitions of one repeated piece of work.

    The cores of a shared host run at two speeds 1.5x to 1.8x apart: a
    loaded speed most of the time, and faster spells of a few milliseconds
    to tens of seconds, which are absent altogether for minutes at a time
    (on a 2-vCPU VM, infer's per-call minimum read 47 us in one 30 s run and
    85 us in the next). The process's CPU time stays equal to its wall time,
    so this is not preemption. The fastest repetition therefore jumps
    between the two speeds from run to run, and the median does when fast
    spells fill half a run. The upper quartile reads the loaded speed unless
    fast spells fill three quarters of a run, and sits below the rare
    repetitions slowed by interrupts. Rounds are timed in short pieces
    (``Round.pieces_ns``), and ``train`` splits its long calls at every
    optimizer step (``train_call_ns``), so each figure has many repetitions.
    """
    return np.percentile(np.asarray(values, dtype=float), 75, axis=axis)


@contextmanager
def step_stamps():
    """Record the end of every ``net.adam_step`` call made inside the block.

    ``net.train`` looks the name up in ``net`` at each step, so rebinding it
    there is enough; the wrapper costs well under a microsecond a step.
    """
    stamps: list[int] = []
    step = net.adam_step

    def stamped(*args, **kwargs):
        out = step(*args, **kwargs)
        stamps.append(perf_counter_ns())
        return out

    net.adam_step = stamped
    try:
        yield stamps
    finally:
        net.adam_step = step


def train_call_ns(intervals, epochs: int) -> float:
    """One ``train`` call's figure from its step intervals in every round.

    ``intervals`` has one row per round: the call's start to the end of
    its first step, then from each step's end to the next, then the last
    step's end to the return. A call takes 0.3 s, but its steps about a
    millisecond each. The steps at one place in the epoch do the same work
    in every epoch (same batch shape), so they are pooled over epochs and
    rounds, and each is given the pool's ``loaded`` figure, from hundreds of
    repetitions instead of a dozen. The first step of an epoch also holds
    the previous epoch's validation pass and weight snapshot, which differ
    from epoch to epoch, so those, and the ends of the call, are given their
    own figure over rounds.
    """
    x = np.asarray(intervals, dtype=float)
    steps = x.shape[1] - 1
    if steps < 1 or steps % epochs:
        return float(loaded(x.sum(axis=1)))
    per_epoch = steps // epochs
    place = np.arange(1, steps) % per_epoch
    total = loaded(x[:, 0]) + loaded(x[:, -1])
    for p in range(per_epoch):
        pool = x[:, 1:steps][:, place == p]
        total += loaded(pool, axis=0).sum() if p == 0 else loaded(pool) * pool.shape[1]
    return float(total)


class Laps:
    """Consecutive timed pieces of a round or a set-up; they sum to its wall time."""

    def __init__(self) -> None:
        self.start = self.last = perf_counter_ns()
        self.ns: list[int] = []

    def lap(self) -> int:
        now = perf_counter_ns()
        self.ns.append(now - self.last)
        self.last = now
        return self.ns[-1]

    @property
    def wall(self) -> int:
        return self.last - self.start


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    gen_tenors: tuple[str, ...]
    train_configs: int
    train_epochs: int
    model_configs: int
    model_epochs: int
    infer_points: int
    infer_singles: int
    infer_batches: int


FULL = Size(gen_tenors=datagen.DEFAULT_MATS, train_configs=273, train_epochs=15,
            model_configs=273, model_epochs=15, infer_points=1024,
            infer_singles=1024, infer_batches=4)
TINY = Size(gen_tenors=("1W", "6M", "1Y"), train_configs=150, train_epochs=5,
            model_configs=273, model_epochs=5, infer_points=1024,
            infer_singles=64, infer_batches=1)


@dataclass
class Round:
    wall_ns: int
    attempted: int
    failed: int
    # One entry per timed call; an array, so that a long run stays small.
    latencies_ns: np.ndarray
    quality: float
    fingerprint: str
    # Consecutive parts of the round, the same parts in every round.
    pieces_ns: list[int] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _count(n, *args, **kwargs):
    return n


def _rows(bundle, x, *args, **kwargs):
    return len(x)


def _grad_rows(bundle, caches, d_out):
    return len(d_out)


def _bundle_samples(bundle, samples, *args, **kwargs):
    return len(samples)


def _samples(samples, *args, **kwargs):
    return len(samples)


def _path_steps(T, F0, alpha, beta, rho, nu, cfg, *args, **kwargs):
    return cfg.paths * cfg.n_steps(T)


# Functions the benchmark calls itself: (module, attr, work per call).
PUBLIC = (
    (datagen, "sample_config", None),
    (datagen, "strike_grid", None),
    (datagen, "build_dataset", _count),
    (datagen, "filter_outliers", None),
    (datagen, "split_dataset", None),
    (datagen, "save_dataset", None),
    (datagen, "load_dataset", None),
    (hagan, "hagan_vol", None),
    (geometry, "features", None),
    (net, "init_bundle", None),
    (net, "train", None),
    (net, "save_model", None),
    (net, "load_model", None),
    (net, "predict_vol", None),
    (net, "predict_vols", None),
    (evaluation, "evaluate_model", None),
)

# Calls between sabrkit modules, rebound in the calling module while a
# traced round runs: (module, attr, span name, work per call or "count").
INTERNAL = (
    (datagen, "sample_config", "datagen.sample_config", None),
    (datagen, "simulate_terminals", "mc.simulate_terminals", _path_steps),
    (datagen, "price_from_terminals", "mc.price_from_terminals", None),
    (datagen, "implied_vol_from_estimate", "mc.implied_vol_from_estimate", None),
    (datagen, "hagan_vol", "hagan.hagan_vol", None),
    (datagen, "features", "geometry.features", None),
    (mc, "black_price", "pricing.black_price", None),
    (mc, "black_vega", "pricing.black_vega", None),
    (mc, "implied_vol", "pricing.implied_vol", None),
    (pricing, "black_price", "pricing.black_price.in_implied_vol", "count"),
    (net, "forward", "net.forward", _rows),
    (net, "backward", "net.backward", _grad_rows),
    (net, "adam_step", "net.adam_step", None),
    (net, "design_matrix", "net.design_matrix", _samples),
    (net, "features", "geometry.features", None),
    (net, "hagan_vol", "hagan.hagan_vol", None),
    (evaluation, "predict_from_rows", "net.predict_from_rows", _bundle_samples),
)


def public_api(tracer=None) -> SimpleNamespace:
    """The public functions, wrapped in spans when a tracer is given."""
    fns = {}
    for module, attr, work in PUBLIC:
        fn = getattr(module, attr)
        if tracer is not None:
            fn = tracer.span(fn, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", work)
        fns[attr] = fn
    return SimpleNamespace(**fns)


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def synthetic_dataset(api, seed: int, configs: int, laps: Laps | None = None) -> datagen.Dataset:
    """Full 11-strike smiles from ``sample_config``, with targets
    ``sigma_hagan * (1 + 0.05 sin(9 K / F0))`` as in acceptance criterion 10,
    split 110:55:22. No Monte Carlo is run. ``laps``, when given, is lapped
    after each config."""
    rng = _rng(seed, 3)
    dataset = datagen.Dataset()
    for c in range(configs):
        T, F0, alpha, beta, rho, nu = api.sample_config(rng)
        for n, K in zip(datagen.GRID_INDICES, api.strike_grid(F0, alpha, T)):
            K = float(K)
            p = SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu)
            try:
                base = api.hagan_vol(p)
                feats = api.features(p)
                valid = True
            except (NegativeVol, DomainError):
                base, feats, valid = _NAN, GeomFeatures(_NAN, _NAN, _NAN, _NAN), False
            dataset.samples.append(datagen.Sample(
                point=p, sigma_hagan=base, sigma_mc=base * (1.0 + 0.05 * math.sin(9.0 * K / F0)),
                feats=feats, grid_index=float(n), valid=valid, config_index=c))
        if laps is not None:
            laps.lap()
    api.split_dataset(dataset, seed=seed)
    return dataset


class Workload:
    """One workload: untimed inputs, a repeatable set-up, and rounds."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def prepare(self, api) -> None:
        """Write input artifacts a user would already hold (untimed)."""

    def setup(self, api) -> list[int]:
        """Set up for rounds; returns the set-up's pieces (``Laps.ns``)."""
        raise NotImplementedError

    def round(self, api) -> Round:
        raise NotImplementedError

    def throughput(self, rounds: list[Round]) -> float:
        raise NotImplementedError

    def checks(self, rounds: list[Round]) -> list[str]:
        """Failed output checks; empty when every output is correct."""
        fingerprints = {r.fingerprint for r in rounds}
        if len(fingerprints) != 1:
            return [f"{self.name}: outputs differ between identical rounds"]
        return []

    def aliases(self, rounds: list[Round], e2e: dict) -> dict:
        """The end-to-end metrics under this workload's own names."""
        return {}

    def traced_extras(self, tracer) -> None:
        """Per-layer values that are not span timings."""

    def calls_ns(self, rounds: list[Round]) -> list[float]:
        """Each timed call's figure over the rounds (see ``loaded``)."""
        return list(loaded([r.latencies_ns for r in rounds], axis=0))

    def round_seconds(self, rounds: list[Round]) -> float:
        """A round's wall time: the sum of its pieces' figures (see ``loaded``)."""
        return float(loaded([r.pieces_ns for r in rounds], axis=0).sum()) / 1e9


class Generate(Workload):
    name = "generate"

    def prepare(self, api) -> None:
        # One config per tenor: the steps per config run from 10 (1W) to
        # 250 (5Y), so a free draw of tenors would make the cost of a round
        # depend on the seed. Each config is sample_config's draw conditioned
        # on its tenor, by rejection over sample seeds.
        self.jobs = []
        for i, tenor in enumerate(self.size.gen_tenors):
            T = datagen.year_fraction(tenor)
            attempt = 0
            while True:
                sample_seed = _derived_seed(self.seed, 1, i, attempt)
                if api.sample_config(_rng(sample_seed))[0] == T:
                    break
                attempt += 1
            cfg = mc.McConfig(paths=PATHS, base_seed=_derived_seed(self.seed, 2, i))
            self.jobs.append((sample_seed, cfg, T))
        self.csv = os.path.join(self.workdir, "dataset.csv")
        self.manifest = os.path.join(self.workdir, "manifest.json")

    def setup(self, api) -> list[int]:
        # A build of the shortest tenor, so lazy numpy set-up is not timed
        # in the rounds.
        laps = Laps()
        sample_seed, cfg, _ = min(self.jobs, key=lambda job: job[1].n_steps(job[2]))
        api.build_dataset(1, cfg, sample_seed, workers=1)
        laps.lap()
        return laps.ns

    def round(self, api) -> Round:
        rows = []
        latencies = []
        laps = Laps()
        for sample_seed, cfg, _ in self.jobs:
            part = api.build_dataset(1, cfg, sample_seed, workers=1)
            latencies.append(laps.lap())
            rows.extend(part.samples)
        invalid = sum(1 for s in rows if not s.valid)
        dataset = datagen.Dataset(samples=rows)
        api.filter_outliers(dataset)
        api.split_dataset(dataset, seed=self.seed)
        manifest = api.save_dataset(dataset, self.csv, self.manifest)
        laps.lap()
        return Round(wall_ns=laps.wall, attempted=len(self.jobs), failed=0,
                     latencies_ns=np.array(latencies), quality=1.0 - invalid / len(rows),
                     fingerprint=manifest["csv_sha256"], pieces_ns=laps.ns,
                     info={"rows": len(rows), "invalid": invalid})

    def throughput(self, rounds):
        return len(self.jobs) / self.round_seconds(rounds)

    def checks(self, rounds):
        failed = super().checks(rounds)
        worst = max(r.info["invalid"] / r.info["rows"] for r in rounds)
        if worst > 0.01:
            failed.append(f"generate: invalid row share {worst:.4f} above 1%")
        return failed

    def aliases(self, rounds, e2e):
        r = rounds[0]
        return {
            "generate.configs_per_s": (e2e["throughput_per_s"], "configs/s"),
            "generate.invalid_row_frac": (r.info["invalid"] / r.info["rows"], "ratio"),
            "generate.csv_sha256": (r.fingerprint, "sha256"),
        }

    def traced_extras(self, tracer):
        tracer.values["datagen.save_dataset.bytes"] = os.path.getsize(self.csv)
        tracer.values["mc.draw_floor.ns_per_normal"] = self.draw_floor()

    def draw_floor(self) -> float:
        """PCG64 ``standard_normal`` time per normal at each job's block shape.

        ``simulate_terminals`` draws two (steps, block) arrays per block;
        this times one pair per job, the median of three passes.
        """
        shapes = [(cfg.n_steps(T), min(cfg.block_size, cfg.paths)) for _, cfg, T in self.jobs]
        per_normal = []
        for rep in range(3):
            rng = _rng(self.seed, 5, rep)
            count = 0
            t0 = perf_counter_ns()
            for steps, width in shapes:
                rng.standard_normal((steps, width))
                rng.standard_normal((steps, width))
                count += 2 * steps * width
            per_normal.append((perf_counter_ns() - t0) / count)
        return float(np.median(per_normal))


class Train(Workload):
    name = "train"

    def setup(self, api) -> list[int]:
        laps = Laps()
        self.csv = os.path.join(self.workdir, "train.csv")
        dataset = synthetic_dataset(api, self.seed, self.size.train_configs, laps)
        api.save_dataset(dataset, self.csv)
        laps.lap()
        self.models = [os.path.join(self.workdir, f"model_{arch}.json") for arch in net.ARCHS]
        return laps.ns

    def round(self, api) -> Round:
        latencies = []
        r2s = []
        laps = Laps()
        dataset = api.load_dataset(self.csv)
        train_rows, val_rows, test_rows = (dataset.split_samples(s) for s in SPLIT_NAMES)
        cfg = net.TrainConfig(epochs=self.size.train_epochs, batch_size=BATCH_SIZE, seed=self.seed)
        laps.lap()
        train_pieces = []
        steps_ns = []
        for arch, path in zip(net.ARCHS, self.models):
            bundle = api.init_bundle(arch, seed=self.seed)
            laps.lap()
            start = laps.last
            with step_stamps() as stamps:
                bundle, _ = api.train(bundle, train_rows, val_rows, cfg)
            latencies.append(laps.lap())
            train_pieces.append(len(laps.ns) - 1)
            steps_ns.append(np.diff([start, *stamps, laps.last]))
            r2s.append(api.evaluate_model(bundle, test_rows).r2_global)
            api.save_model(bundle, path)
            laps.lap()
        row_epochs = len(net.ARCHS) * len(train_rows) * self.size.train_epochs
        return Round(wall_ns=laps.wall, attempted=len(net.ARCHS), failed=0,
                     latencies_ns=np.array(latencies), quality=min(r2s),
                     fingerprint=_sha256(*self.models), pieces_ns=laps.ns,
                     info={"row_epochs": row_epochs, "r2": dict(zip(net.ARCHS, r2s)),
                           "train_pieces": train_pieces, "steps_ns": steps_ns})

    def calls_ns(self, rounds):
        return [train_call_ns(call, self.size.train_epochs)
                for call in zip(*(r.info["steps_ns"] for r in rounds))]

    def round_seconds(self, rounds):
        skip = set(rounds[0].info["train_pieces"])
        pieces = zip(*(r.pieces_ns for r in rounds))
        other = sum(loaded(piece) for i, piece in enumerate(pieces) if i not in skip)
        return (other + sum(self.calls_ns(rounds))) / 1e9

    def throughput(self, rounds):
        return rounds[0].info["row_epochs"] / self.round_seconds(rounds)

    def checks(self, rounds):
        failed = super().checks(rounds)
        r2_min = min(r.quality for r in rounds)
        if not r2_min > 0.0:
            failed.append(f"train: lowest test R^2 {r2_min!r} is no better than the mean")
        return failed

    def aliases(self, rounds, e2e):
        return {
            "train.row_epochs_per_s": (e2e["throughput_per_s"], "row-epochs/s"),
            "train.r2_test_min": (e2e["quality"], "ratio"),
            "train.models_sha256": (rounds[0].fingerprint, "sha256"),
        }

    def traced_extras(self, tracer):
        tracer.values["datagen.load_dataset.bytes"] = os.path.getsize(self.csv)


class Infer(Workload):
    name = "infer"

    def prepare(self, api) -> None:
        dataset = synthetic_dataset(api, self.seed, self.size.model_configs)
        bundle = net.init_bundle("georesnn", seed=self.seed)
        cfg = net.TrainConfig(epochs=self.size.model_epochs, batch_size=BATCH_SIZE, seed=self.seed)
        bundle, _ = net.train(bundle, dataset.split_samples("train"),
                              dataset.split_samples("val"), cfg)
        self.model = os.path.join(self.workdir, "model_georesnn.json")
        net.save_model(bundle, self.model)

    def setup(self, api) -> list[int]:
        laps = Laps()
        self.bundle = api.load_model(self.model)
        laps.lap()
        # The strike's grid index is uniform over the 11-point grid, so the
        # at-the-money shortcut is taken on one point in eleven.
        rng = _rng(self.seed, 6)
        points = []
        for i in range(self.size.infer_points):
            T, F0, alpha, beta, rho, nu = api.sample_config(rng)
            K = float(api.strike_grid(F0, alpha, T)[rng.integers(0, len(datagen.GRID_INDICES))])
            points.append(SabrPoint(T=T, F0=F0, K=K, alpha=alpha, beta=beta, rho=rho, nu=nu))
            # A piece per 64 points: the run keeps every set-up's pieces.
            if (i + 1) % 64 == 0 or i + 1 == self.size.infer_points:
                laps.lap()
        self.points = points
        return laps.ns

    def round(self, api) -> Round:
        singles = np.full(self.size.infer_singles, _NAN)
        latencies = []
        batch_ns = []
        failed = 0
        t0 = perf_counter_ns()
        for i, p in enumerate(self.points[: self.size.infer_singles]):
            c0 = perf_counter_ns()
            try:
                singles[i] = api.predict_vol(self.bundle, p)
            except SabrkitError:
                failed += 1
            latencies.append(perf_counter_ns() - c0)
        for _ in range(self.size.infer_batches):
            c0 = perf_counter_ns()
            batch = api.predict_vols(self.bundle, self.points)
            batch_ns.append(perf_counter_ns() - c0)
        wall = perf_counter_ns() - t0
        vols = np.concatenate([singles, batch])
        ok = np.isfinite(vols) & (vols > 0.0)
        head = batch[: len(singles)]
        mismatch = int(np.sum(~(np.abs(singles - head) <= 1e-12 * np.abs(head))))
        return Round(wall_ns=wall, attempted=len(singles) + self.size.infer_batches,
                     failed=failed, latencies_ns=np.array(latencies),
                     quality=float(ok.mean()),
                     fingerprint=hashlib.sha256(vols.tobytes()).hexdigest(),
                     info={"batch_ns": batch_ns, "bad_vols": int((~ok).sum()),
                           "mismatch": mismatch})

    def throughput(self, rounds):
        return len(self.points) / float(loaded([r.info["batch_ns"] for r in rounds])) * 1e9

    def checks(self, rounds):
        failed = super().checks(rounds)
        if any(r.info["bad_vols"] for r in rounds):
            failed.append("infer: a vol is not finite and positive")
        if any(r.info["mismatch"] for r in rounds):
            failed.append("infer: single-point vols differ from batched vols by over 1e-12 relative")
        return failed

    def aliases(self, rounds, e2e):
        attempted = sum(r.attempted for r in rounds)
        return {
            "infer.p50_us": (e2e["latency_p50_us"], "us"),
            "infer.p99_us": (e2e["latency_p99_us"],
                             f"us (n={self.size.infer_singles} per round, median of {len(rounds)} rounds)"),
            "infer.batch_points_per_s": (e2e["throughput_per_s"], "points/s"),
            "infer.failed_frac": (sum(r.failed for r in rounds) / attempted, "ratio"),
        }


WORKLOADS = {w.name: w for w in (Generate, Train, Infer)}
