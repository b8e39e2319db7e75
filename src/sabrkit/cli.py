"""Command-line entry point.

Subcommands: smile, generate, train, evaluate, price, bench. Every run is
reproducible from its flags; artifacts carry the seeds and configuration
used to produce them, the Monte Carlo settings as
:meth:`~sabrkit.mc.McConfig.record` gives them. Every subcommand uses the
one Hagan baseline, :func:`~sabrkit.hagan.hagan_vol`, so ``price`` and
``evaluate`` correct the same closed form. A JSON config file can pre-set
any long flag (--config file); explicitly passed flags win over file
values. Flags are spelled in full; argparse's prefix matching is off.
``evaluate --stress`` runs the eleven-scenario stress suite once for all
``--models``: each report holds its model's records, and each model gets
one CSV per scenario (``T,K,sigma_mc,sigma_hagan,sigma_model``), none for
a scenario that failed. The
:mod:`~sabrkit.datagen` writers make ``--out`` with a command's first
file, so a command that fails before it leaves none. Every command writes
its files before it prints, so one whose stdout closes early (``| head``)
still leaves them whole; the broken pipe is not reported as an error.

Exit codes: 0 success, 2 usage or validation error (a ConfigError or a plain
ValueError), 3 numerical failure (any other SabrkitError, or an ArithmeticError).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import datagen, evaluation, net
from .errors import ConfigError, NegativeVol, NonFinite, SabrkitError
from .hagan import SabrPoint, hagan_vol
from .mc import McConfig


def _add_mc_flags(parser: argparse.ArgumentParser, default_paths: int) -> None:
    parser.add_argument("--paths", type=int, default=default_paths)
    parser.add_argument("--steps-per-year", type=int, default=50)
    parser.add_argument("--cv-vol", choices=("paper-alpha", "effective-atm"),
                        default="paper-alpha")


def _add_sabr_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--F0", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--rho", type=float, default=-0.8)
    parser.add_argument("--nu", type=float, default=1.2)


def _mc_config(args: argparse.Namespace, seed: int) -> McConfig:
    return McConfig(
        paths=args.paths,
        steps_per_year=args.steps_per_year,
        cv_vol_mode=args.cv_vol.replace("-", "_"),
        base_seed=seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviated flags: the config-file overlay finds the explicit ones
    # by their full spelling.
    parser = argparse.ArgumentParser(prog="sabrkit", allow_abbrev=False)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smile", allow_abbrev=False,
                       help="analytic vs Monte Carlo smile for one configuration")
    _add_sabr_flags(p)
    _add_mc_flags(p, default_paths=1_000_000)
    p.add_argument("--k-min", type=float, default=None, help="default 0.5*F0")
    p.add_argument("--k-max", type=float, default=None, help="default 2*F0")
    p.add_argument("--n-strikes", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=str, default=None, help="directory for smile.csv")
    p.set_defaults(func=cmd_smile)

    # Options marked required are validated after the config-file overlay,
    # so a config file may supply them too.
    p = sub.add_parser("generate", allow_abbrev=False, help="build a supervised dataset")
    _add_mc_flags(p, default_paths=100_000)
    p.add_argument("--configs", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--split-seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--split-by-config", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_generate, required=("configs", "out"))

    p = sub.add_parser("train", allow_abbrev=False, help="train one architecture on a dataset")
    p.add_argument("--dataset", type=str, default=None)
    p.add_argument("--arch", choices=sorted(net.ARCHS), default=None)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr0", type=float, default=4e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_train, required=("dataset", "arch", "out"))

    p = sub.add_parser("evaluate", allow_abbrev=False, help="metrics report for trained models")
    p.add_argument("--models", type=str, nargs="+", default=None)
    p.add_argument("--dataset", type=str, default=None)
    _add_mc_flags(p, default_paths=200_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--stress", action="store_true",
                   help="run the stress suite: stressed smiles and maturity slices")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_evaluate, required=("models", "dataset", "out"))

    p = sub.add_parser("price", allow_abbrev=False, help="one corrected implied vol to stdout")
    p.add_argument("--model", type=str, default=None)
    _add_sabr_flags(p)
    p.add_argument("--K", type=float, default=None)
    p.set_defaults(func=cmd_price, required=("model", "K"))

    p = sub.add_parser("bench", allow_abbrev=False,
                       help="inference latency and speed-up vs Monte Carlo")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--points", type=int, default=10_000)
    _add_mc_flags(p, default_paths=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench, required=("model",))
    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    if args.config:
        with open(args.config) as fh:
            try:
                overrides = json.load(fh)
            except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{args.config}: not a JSON file ({exc})") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object")
        explicit = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
        keys, tokens = [], []
        for key, value in overrides.items():
            flag = "--" + key.replace("_", "-")
            if not hasattr(args, key):
                raise ConfigError(f"{args.config}: config file sets unknown option {key!r}")
            if flag in explicit or value is None or value is False:
                continue
            keys.append(key)
            tokens += ([flag] if value is True else [flag, *map(str, value)]
                       if isinstance(value, list) else [f"{flag}={value}"])
        # The file's values go through each flag's own type and choices.
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                from_file = _build_parser().parse_args([args.command, *tokens])
        except SystemExit:
            reason = err.getvalue().split("error: ")[-1].strip()
            raise ConfigError(f"{args.config}: {reason}") from None
        for key in keys:
            setattr(args, key, getattr(from_file, key))
    missing = [name for name in getattr(args, "required", ()) if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def cmd_smile(args) -> int:
    point_args = dict(T=args.T, F0=args.F0, alpha=args.alpha, beta=args.beta,
                      rho=args.rho, nu=args.nu)
    k_min = args.k_min if args.k_min is not None else 0.5 * args.F0
    k_max = args.k_max if args.k_max is not None else 2.0 * args.F0
    if args.n_strikes < 1 or not 0.0 < k_min < k_max < np.inf:
        raise ConfigError("need n_strikes >= 1 and 0 < k_min < k_max < inf")
    strikes = np.linspace(k_min, k_max, args.n_strikes)
    # Every strike is checked before the simulation starts.
    hagan_vols = [hagan_vol(SabrPoint(K=float(k), **point_args)) for k in strikes]

    mc_vols, mc_ses = datagen.reference_smile(**point_args, strikes=strikes,
                                              mc_cfg=_mc_config(args, args.seed))
    rows = list(zip(strikes.tolist(), hagan_vols, mc_vols.tolist(), mc_ses.tolist()))
    if args.out:
        path = os.path.join(args.out, "smile.csv")
        datagen.write_csv(path, ["K", "sigma_hagan", "sigma_mc", "mc_vol_std_error"], rows)
    print(f"{'strike':>10} {'hagan':>10} {'monte_carlo':>12} {'mc_se':>10}")
    for k, hag, mc_vol, mc_se in rows:
        print(f"{k:10.4f} {hag:10.6f} {mc_vol:12.6f} {mc_se:10.2e}")
    if args.out:
        print(f"wrote {path}")
    if np.isnan(mc_vols).all():
        raise NonFinite("every strike failed to invert")
    return 0


def cmd_generate(args) -> int:
    cfg = _mc_config(args, args.seed)
    csv_path = os.path.join(args.out, "dataset.csv")
    manifest_path = os.path.join(args.out, "manifest.json")
    dataset, manifest = datagen.generate_dataset(
        num_configs=args.configs, mc_cfg=cfg, seed=args.seed,
        csv_path=csv_path, manifest_path=manifest_path, workers=args.workers,
        split_seed=args.split_seed, by_config_split=args.split_by_config,
    )
    frac_valid = manifest["valid_rows"] / manifest["rows"]
    print(f"wrote {csv_path}: {manifest['rows']} rows, "
          f"{manifest['valid_rows']} valid ({100 * frac_valid:.2f}%), "
          f"sha256 {manifest['csv_sha256'][:12]}")
    if frac_valid < 0.99:
        print("validity below 99%, flagging run as failed", file=sys.stderr)
        return 3
    return 0


def cmd_train(args) -> int:
    dataset = datagen.load_dataset(args.dataset)
    train_rows = dataset.split_samples("train")
    val_rows = dataset.split_samples("val")
    cfg = net.TrainConfig(lr0=args.lr0, batch_size=args.batch_size,
                          epochs=args.epochs, seed=args.seed)
    bundle = net.init_bundle(args.arch, seed=args.seed)
    bundle, history = net.train(bundle, train_rows, val_rows, cfg)
    model_path = os.path.join(args.out, f"model_{args.arch}.json")
    history_path = os.path.join(args.out, f"history_{args.arch}.csv")
    net.save_model(bundle, model_path)
    datagen.write_csv(history_path, ["epoch", "train_loss", "val_loss", "lr"],
                      ((r.epoch, r.train_loss, r.val_loss, r.lr) for r in history))
    best = bundle.manifest["best_epoch"]
    print(f"wrote {model_path} (best epoch {best}, "
          f"val loss {bundle.manifest['best_val_loss']:.6g}) and {history_path}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = datagen.load_dataset(args.dataset)
    test_rows = dataset.split_samples("test")
    if not test_rows:
        raise ConfigError("dataset has no test rows; generate with splits first")
    tag = datagen.file_sha256(args.dataset)[:12]
    mc_cfg = _mc_config(args, args.seed)
    bundles = [net.load_model(model_path) for model_path in args.models]
    for i, bundle in enumerate(bundles):
        if any(other.arch == bundle.arch for other in bundles[:i]):
            raise ConfigError(f"two models of arch {bundle.arch!r}; their reports share one name")
    metrics = [evaluation.evaluate_model(bundle, test_rows) for bundle in bundles]
    suites = (evaluation.stress_suite(bundles, mc_cfg) if args.stress
              else [None] * len(bundles))
    lines = []
    for bundle, m, records in zip(bundles, metrics, suites):
        report = {"dataset": args.dataset, "dataset_sha256_12": tag,
                  "metrics": dataclasses.asdict(m),
                  "mc_config": mc_cfg.record() if args.stress else None,
                  "stress": None if records is None else [vars(r) for r in records]}
        for r in records or ():
            if r.error is None:
                datagen.write_csv(
                    os.path.join(args.out, f"stress_{bundle.arch}_{tag}_{r.scenario_id}.csv"),
                    ["T", "K", "sigma_mc", "sigma_hagan", "sigma_model"],
                    ((r.T, *vols) for vols in zip(
                        r.strikes, r.sigma_mc, r.sigma_hagan, r.sigma_model)))
        out_path = os.path.join(args.out, f"metrics_{bundle.arch}_{tag}.json")
        datagen.write_json(out_path, report)
        lines.append(f"{bundle.arch}: r2_global={m.r2_global:.4f} "
                     f"rmse_rel={m.rmse_rel:.4f} -> {out_path}")
    print("\n".join(lines))
    return 0


def cmd_price(args) -> int:
    bundle = net.load_model(args.model)
    point = SabrPoint(T=args.T, F0=args.F0, K=args.K, alpha=args.alpha,
                      beta=args.beta, rho=args.rho, nu=args.nu)
    # A residual output below -1 serves a negative vol, which is no price.
    vol = net.predict_vol(bundle, point)
    if not 0.0 < vol < np.inf:
        raise (NegativeVol if vol <= 0.0 else NonFinite)(f"model served vol {vol!r}")
    print(f"{vol:.10g}")
    return 0


def cmd_bench(args) -> int:
    bundle = net.load_model(args.model)
    cfg = _mc_config(args, args.seed)
    stats = evaluation.latency_bench(bundle, n_points=args.points, mc_cfg=cfg,
                                     seed=args.seed)
    print(json.dumps(vars(stats), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    code = 0
    try:
        _apply_config_file(args, argv)
        # A failing command writes one stderr line, and no numpy warning.
        with np.errstate(all="ignore"):
            code = args.func(args)
        # Output still buffered for a reader that has gone fails here, where
        # it is handled, and not in the interpreter's last flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # Every file is written before anything is printed, so the run is
        # whole; the unread output goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (SabrkitError, ArithmeticError, ValueError) as exc:
        invalid = isinstance(exc, ConfigError) or not isinstance(exc, (SabrkitError, ArithmeticError))
        print(f"{'invalid input' if invalid else 'numerical failure'}: {exc}", file=sys.stderr)
        return 2 if invalid else 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A path or strike budget the machine cannot allocate.
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
