#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Generates a bucketed dataset, trains all four architectures under identical
seeds, evaluates each on the held-out test split, and writes models,
histories and metric reports into the output directory. Runs in minutes on
a laptop-class machine; scale --configs and --paths up for full-size runs.
"""

import argparse
import json
import os
import sys

from sabrkit.cli import main as cli_main


def run(argv):
    code = cli_main(argv)
    if code != 0:
        print(f"step failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="runs/desk")
    parser.add_argument("--configs", type=int, default=2000)
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--train-seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--stress", action="store_true",
                        help="also run stress scenarios and the maturity sweep")
    args = parser.parse_args()

    data_dir = os.path.join(args.out, "data")
    model_dir = os.path.join(args.out, "models")
    report_dir = os.path.join(args.out, "reports")
    run(["generate", "--configs", str(args.configs), "--paths", str(args.paths),
         "--seed", str(args.seed), "--workers", str(args.workers),
         "--out", data_dir])

    dataset = os.path.join(data_dir, "dataset.csv")
    models = []
    for arch in ("ndn", "geonn", "resnn", "georesnn"):
        run(["train", "--dataset", dataset, "--arch", arch,
             "--epochs", str(args.epochs), "--seed", str(args.train_seed),
             "--out", model_dir])
        models.append(os.path.join(model_dir, f"model_{arch}.json"))

    eval_args = ["evaluate", "--models", *models, "--dataset", dataset,
                 "--out", report_dir, "--bench"]
    if args.stress:
        eval_args += ["--stress", "--sweep"]
    run(eval_args)

    print("\nsummary")
    for path in sorted(os.listdir(report_dir)):
        if path.startswith("metrics_") and path.endswith(".json"):
            with open(os.path.join(report_dir, path)) as fh:
                report = json.load(fh)
            m = report["metrics"]
            print(f"  {m['arch']:9s} r2_global={m['r2_global']:.4f} "
                  f"rmse_rel={m['rmse_rel']:.4f} "
                  f"val_loss={m['val_loss_final']:.3e}")


if __name__ == "__main__":
    main()
