import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sabrkit import cli, datagen, errors, evaluation
from sabrkit.cli import main
from sabrkit.datagen import CSV_HEADER, load_dataset
from sabrkit.errors import ConfigError, NonFinite, PriceOutOfBounds
from sabrkit.evaluation import default_stress_scenarios
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.net import ARCHS, init_bundle, load_model, predict_from_rows, predict_vol, save_model

from bundles import to_v1, zero_output


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def zero_model(tmp_path, arch="georesnn"):
    path = tmp_path / f"{arch}.json"
    save_model(zero_output(init_bundle(arch, seed=0)), path)
    return path


class TestSmile:
    def test_flat_lognormal_matches_alpha(self, tmp_path, capsys):
        code = main(["smile", "--beta", "1.0", "--nu", "0.0", "--rho", "0.0",
                     "--alpha", "0.2", "--paths", "2000", "--n-strikes", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "smile.csv")
        assert len(rows) == 7  # header + strikes
        assert rows[0] == ["K", "sigma_hagan", "sigma_mc", "mc_vol_std_error"]
        for row in rows[1:]:
            assert abs(float(row[2]) - 0.2) <= 1e-9

    def test_invalid_params_exit_2(self):
        assert main(["smile", "--beta", "2.0", "--paths", "2000"]) == 2

    @pytest.mark.parametrize("argv", [["--n-strikes", "0"], ["--k-min", "2", "--k-max", "1"],
                                      ["--k-max", "inf"]],
                             ids=["no-strikes", "reversed-range", "infinite-k-max"])
    def test_bad_strike_range_exit_2_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["smile", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: need n_strikes >= 1 and 0 < k_min < k_max < inf\n"
        assert not out.exists()

    def test_bad_strike_rejected_before_simulating(self, capsys):
        # At the default 1M paths a simulation would take seconds; the
        # strike is checked first, so nothing reaches stdout.
        assert main(["smile", "--k-min", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("invalid input:")

    @pytest.mark.parametrize("flag", ["--paths", "--n-strikes"])
    def test_unallocatable_budget_exit_2_one_line(self, tmp_path, capsys, flag):
        # 1e15 float64 values take 7 PiB, beyond the x86-64 address space,
        # so the first array of that length fails at once.
        out = tmp_path / "out"
        assert main(["smile", flag, "1000000000000000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("out of memory:")
        assert not out.exists()

    def test_tiny_forward_exit_3_one_line(self, tmp_path, capsys):
        # A valid point whose F0*K underflows: the closed form divides by
        # zero, and fails, before the simulation starts.
        out = tmp_path / "out"
        assert main(["smile", "--F0", "1e-170", "--beta", "0", "--paths", "1000",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: closed form fails: vol nan\n"
        assert not out.exists()

    def test_closed_stdout_still_writes_the_file(self, tmp_path):
        # The reader of stdout is gone before the command prints a line, as
        # when `| head` has exited: the broken pipe is not an error.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        smile = [sys.executable, "-m", "sabrkit.cli", "smile", "--paths", "2000",
                 "--n-strikes", "3", "--out"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            closed = subprocess.run([*smile, str(tmp_path / "closed")], stdout=write_end,
                                    stderr=subprocess.PIPE, env=env, timeout=600)
        finally:
            os.close(write_end)
        opened = subprocess.run([*smile, str(tmp_path / "open")], capture_output=True,
                                env=env, timeout=600)
        assert (closed.returncode, closed.stderr) == (0, b"")
        assert opened.returncode == 0 and len(opened.stdout.splitlines()) == 5
        assert ((tmp_path / "closed" / "smile.csv").read_bytes()
                == (tmp_path / "open" / "smile.csv").read_bytes())

    def test_strike_range_default(self, tmp_path):
        main(["smile", "--paths", "2000", "--n-strikes", "4", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "smile.csv")
        ks = [float(r[0]) for r in rows[1:]]
        assert ks[0] == 0.5 and ks[-1] == 2.0


class TestGenerate:
    def test_row_count_and_exit(self, tmp_path, capsys):
        code = main(["generate", "--configs", "10", "--paths", "2000",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "dataset.csv")
        assert len(rows) == 111  # header + 10*11
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rows"] == 110
        assert manifest["sample_seed"] == 7
        # The fixed Monte Carlo constants stay in the dataset's record.
        mc_config = manifest["mc_config"]
        assert set(mc_config) == {"paths", "steps_per_year", "min_steps", "cv_vol_mode",
                                  "sigma_scheme", "base_seed", "block_size", "chunk_steps"}
        assert mc_config["min_steps"] == 10
        assert mc_config["block_size"] == 4096
        assert mc_config["chunk_steps"] == 16

    def test_same_seed_same_hash(self, tmp_path):
        main(["generate", "--configs", "5", "--paths", "2000", "--seed", "3",
              "--out", str(tmp_path / "a")])
        main(["generate", "--configs", "5", "--paths", "2000", "--seed", "3",
              "--out", str(tmp_path / "b")])
        ha = hashlib.sha256((tmp_path / "a" / "dataset.csv").read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / "dataset.csv").read_bytes()).hexdigest()
        assert ha == hb
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["csv_sha256"] == mb["csv_sha256"]

    def test_low_validity_exit_3_after_writing(self, tmp_path, capsys, monkeypatch):
        # Every strike above the forward fails to price, so 5 rows in 11
        # are invalid; the CSV and the manifest are still written whole.
        price_from_terminals = datagen.price_from_terminals

        def otm_fails(terminals, K):
            if K > terminals.F0:
                raise PriceOutOfBounds("forced")
            return price_from_terminals(terminals, K)

        monkeypatch.setattr(datagen, "price_from_terminals", otm_fails)
        assert main(["generate", "--configs", "4", "--paths", "2000", "--workers", "1",
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "validity below 99%, flagging run as failed\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["rows"], manifest["valid_rows"]) == (44, 24)
        assert len(read_csv(tmp_path / "dataset.csv")) == 45
        assert captured.out.startswith(f"wrote {tmp_path / 'dataset.csv'}: 44 rows, 24 valid")

    def test_bad_mc_config_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        # The directory is made only once the rows are split, so no failure
        # before that, in the config checks or after the simulation, leaves
        # an empty one behind. The split always fails here; the first two
        # runs fail before it.
        def no_split(*args, **kwargs):
            raise ConfigError("forced split failure")

        monkeypatch.setattr(datagen, "split_dataset", no_split)
        out = tmp_path / "out"
        for configs, paths, message in [
            ("2", "500", "paths must be >= 1000"),
            ("0", "1000", "num_configs must be >= 1"),
            ("1", "1000", "forced split failure"),
        ]:
            assert main(["generate", "--configs", configs, "--paths", paths,
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"invalid input: {message}")
            assert not out.exists()

    def generate(self, out, *flags):
        assert main(["generate", "--configs", "4", "--paths", "1000", "--workers", "1",
                     *flags, "--out", str(out)]) == 0
        return load_dataset(out / "dataset.csv"), json.loads((out / "manifest.json").read_text())

    def test_split_seed_reaches_manifest_and_tags(self, tmp_path):
        default, default_manifest = self.generate(tmp_path / "a")
        seeded, manifest = self.generate(tmp_path / "b", "--split-seed", "7")
        assert (default_manifest["split_seed"], manifest["split_seed"]) == (42, 7)
        tags = [s.split for s in seeded.samples]
        assert [s.split for s in default.samples] != tags
        datagen.split_dataset(default, seed=7)
        assert [s.split for s in default.samples] == tags

    def test_split_by_config_keeps_configs_whole(self, tmp_path):
        dataset, manifest = self.generate(tmp_path, "--split-by-config")
        assert manifest["split_by_config"] is True
        tags = {}
        for s in dataset.valid_samples():
            tags.setdefault(s.config_index, set()).add(s.split)
        assert len(tags) == 4
        assert all(len(split) == 1 for split in tags.values())
        assert len(set.union(*tags.values())) > 1

    def test_steps_per_year_reaches_manifest(self, tmp_path):
        _, manifest = self.generate(tmp_path, "--steps-per-year", "20")
        assert manifest["mc_config"]["steps_per_year"] == 20
        assert manifest["split_by_config"] is False


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["generate", "--configs", "40", "--paths", "2000", "--seed", "11",
                 "--out", str(out)])
    assert code == 0
    return out / "dataset.csv"


class TestTrainEvaluate:
    def test_train_writes_model_and_history(self, small_dataset, tmp_path):
        code = main(["train", "--dataset", str(small_dataset), "--arch", "ndn",
                     "--epochs", "3", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        history = read_csv(tmp_path / "history_ndn.csv")
        assert history[0] == ["epoch", "train_loss", "val_loss", "lr"]
        assert len(history) == 4
        payload = json.loads((tmp_path / "model_ndn.json").read_text())
        assert payload["arch"] == "ndn"
        assert payload["manifest"]["best_epoch"] <= 3

    def test_batch_size_reaches_model_manifest(self, small_dataset, tmp_path):
        assert main(["train", "--dataset", str(small_dataset), "--arch", "ndn",
                     "--epochs", "1", "--batch-size", "32", "--out", str(tmp_path)]) == 0
        model = json.loads((tmp_path / "model_ndn.json").read_text())
        assert model["manifest"]["batch_size"] == 32

    @pytest.mark.parametrize("lr0", ["0", "nan", "inf"])
    def test_bad_lr0_exit_2_one_line(self, small_dataset, tmp_path, capsys, lr0):
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(small_dataset), "--arch", "ndn",
                     "--epochs", "1", "--lr0", lr0, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: lr0, batch_size and epochs must be finite and positive\n"
        assert not out.exists()

    def test_train_deterministic(self, small_dataset, tmp_path):
        for sub in ("a", "b"):
            main(["train", "--dataset", str(small_dataset), "--arch", "resnn",
                  "--epochs", "2", "--seed", "5", "--out", str(tmp_path / sub)])
        assert ((tmp_path / "a" / "model_resnn.json").read_bytes()
                == (tmp_path / "b" / "model_resnn.json").read_bytes())

    def test_evaluate_writes_metrics(self, small_dataset, tmp_path):
        main(["train", "--dataset", str(small_dataset), "--arch", "georesnn",
              "--epochs", "2", "--seed", "2", "--out", str(tmp_path)])
        code = main(["evaluate", "--models", str(tmp_path / "model_georesnn.json"),
                     "--dataset", str(small_dataset), "--out", str(tmp_path)])
        assert code == 0
        reports = list(tmp_path.glob("metrics_georesnn_*.json"))
        assert len(reports) == 1
        report = json.loads(reports[0].read_text())
        assert "r2_global" in report["metrics"]
        assert set(report["metrics"]["regions"]) == {"itm", "atm", "otm"}
        assert report["mc_config"] is None and "latency" not in report
        # deterministic given bundle, dataset and seeds
        first = reports[0].read_bytes()
        assert main(["evaluate", "--models", str(tmp_path / "model_georesnn.json"),
                     "--dataset", str(small_dataset), "--out", str(tmp_path)]) == 0
        assert reports[0].read_bytes() == first

    def test_report_is_the_same_from_any_directory(self, small_dataset, tmp_path,
                                                   monkeypatch):
        model = zero_model(tmp_path)
        reports = []
        for sub in ("a", "b"):
            work = tmp_path / sub / "work"
            (work / "data").mkdir(parents=True)
            shutil.copy(small_dataset, work / "data" / "dataset.csv")
            shutil.copy(model, work / "model.json")
            monkeypatch.chdir(work)
            assert main(["evaluate", "--models", "model.json", "--dataset",
                         "data/dataset.csv", "--out", "out"]) == 0
            reports.append(next((work / "out").glob("metrics_georesnn_*.json")).read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["dataset"] == "data/dataset.csv"

    def test_report_tag_is_manifest_hash_prefix(self, small_dataset, tmp_path):
        model = zero_model(tmp_path)
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((small_dataset.parent / "manifest.json").read_text())
        tag = manifest["csv_sha256"][:12]
        report_path = next(tmp_path.glob("metrics_georesnn_*.json"))
        assert json.loads(report_path.read_text())["dataset_sha256_12"] == tag
        assert report_path.name == f"metrics_georesnn_{tag}.json"

    def test_evaluate_records_full_mc_config(self, small_dataset, tmp_path):
        model = zero_model(tmp_path)
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--cv-vol", "effective-atm", "--stress", "--paths", "2000",
                     "--out", str(tmp_path)]) == 0
        report = json.loads(next(tmp_path.glob("metrics_georesnn_*.json")).read_text())
        assert report["mc_config"] == {
            "paths": 2000, "steps_per_year": 50, "min_steps": 10, "cv_vol_mode": "effective_atm",
            "sigma_scheme": "log_exact", "base_seed": 42, "block_size": 4096,
            "chunk_steps": 16}

    def test_stress_outputs_carry_scenario_T(self, small_dataset, tmp_path):
        model = zero_model(tmp_path)
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--stress", "--paths", "2000", "--out", str(tmp_path)]) == 0
        report = json.loads(next(tmp_path.glob("metrics_georesnn_*.json")).read_text())
        scenarios = default_stress_scenarios()
        assert [(r["scenario_id"], r["T"]) for r in report["stress"]] == [
            (sc.scenario_id, sc.T) for sc in scenarios]
        assert "sweep" not in report
        assert len(list(tmp_path.glob("*.csv"))) == len(scenarios) == 11
        for sc in scenarios:
            rows = read_csv(next(tmp_path.glob(f"stress_georesnn_*_{sc.scenario_id}.csv")))
            assert rows[0] == ["T", "K", "sigma_mc", "sigma_hagan", "sigma_model"]
            assert len(rows) == 1 + len(sc.strikes)
            assert all(field for row in rows for field in row)
            for row in rows[1:]:
                assert float(row[0]) == pytest.approx(sc.T, rel=1e-11)

    def test_stress_run_writes_the_same_bytes_twice(self, small_dataset, tmp_path):
        # Two runs of one evaluate command write the same report and the
        # same 11 stress CSVs, byte for byte.
        model = tmp_path / "georesnn.json"
        save_model(init_bundle("georesnn", seed=0), model)
        outs = [tmp_path / sub for sub in ("a", "b")]
        for out in outs:
            assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                         "--stress", "--paths", "2000", "--out", str(out)]) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert len(names) == 12
        assert sorted(path.name for path in outs[1].iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_bad_mc_config_leaves_no_out_dir(self, small_dataset, tmp_path, capsys):
        model = zero_model(tmp_path)
        out = tmp_path / "out"
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--stress", "--paths", "500", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: paths must be >= 1000")
        assert not out.exists()

    def test_failed_scenarios_are_reported_not_raised(self, small_dataset, tmp_path,
                                                      monkeypatch):
        def broken(*args, **kwargs):
            raise NonFinite("no reference")

        monkeypatch.setattr(evaluation, "reference_smile", broken)
        model = zero_model(tmp_path)
        out = tmp_path / "out"
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--stress", "--paths", "2000", "--out", str(out)]) == 0
        report = json.loads(next(out.glob("metrics_georesnn_*.json")).read_text())
        assert [r["error"] for r in report["stress"]] == ["no reference"] * 11
        assert not list(out.glob("*.csv"))

    def test_stress_references_are_simulated_once_for_all_models(self, small_dataset, tmp_path,
                                                                 monkeypatch):
        calls = []
        reference_smile = evaluation.reference_smile
        monkeypatch.setattr(evaluation, "reference_smile",
                            lambda *args: calls.append(args) or reference_smile(*args))
        models = [zero_model(tmp_path, "georesnn"), zero_model(tmp_path, "resnn")]
        out = tmp_path / "out"
        assert main(["evaluate", "--models", *map(str, models), "--dataset", str(small_dataset),
                     "--stress", "--paths", "2000", "--out", str(out)]) == 0
        assert len(calls) == 11
        # Strict JSON: a NaN, Infinity or -Infinity token fails to load.
        a, b = (json.loads(next(out.glob(f"metrics_{arch}_*.json")).read_text(),
                           parse_constant=pytest.fail)["stress"]
                for arch in ("georesnn", "resnn"))
        assert [r["error"] for r in a + b] == [None] * 22
        for key in ("sigma_mc", "sigma_hagan"):
            assert [r[key] for r in a] == [r[key] for r in b]
        assert len(list(out.glob("stress_*.csv"))) == 22

    def test_no_test_rows_exit_2_one_line(self, small_dataset, tmp_path, capsys):
        rows = read_csv(small_dataset)
        split = CSV_HEADER.index("split")
        for row in rows[1:]:
            if row[split] == "test":
                row[split] = "train"
        no_test = tmp_path / "dataset.csv"
        with open(no_test, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert main(["evaluate", "--models", str(zero_model(tmp_path)), "--dataset",
                     str(no_test), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: dataset has no test rows; generate with splits first\n")
        assert not out.exists()

    def test_broken_model_leaves_no_out_dir(self, small_dataset, tmp_path, capsys):
        good = zero_model(tmp_path)
        broken = tmp_path / "broken.json"
        broken.write_text("{}")
        out = tmp_path / "out"
        assert main(["evaluate", "--models", str(good), str(broken), "--dataset",
                     str(small_dataset), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert not out.exists()

    def test_two_models_of_one_arch_exit_2(self, small_dataset, tmp_path, capsys):
        # Both reports would be metrics_georesnn_<hash>.json, one over the other.
        models = [zero_model(tmp_path / sub) for sub in ("a", "b")]
        out = tmp_path / "out"
        assert main(["evaluate", "--models", *map(str, models), "--dataset",
                     str(small_dataset), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:") and "'georesnn'" in err
        assert not out.exists()

    def test_empty_region_leaves_no_out_dir(self, small_dataset, tmp_path, capsys):
        # Only at-the-money test rows stay; the metrics fail before any write.
        rows = read_csv(small_dataset)
        n, split = CSV_HEADER.index("n"), CSV_HEADER.index("split")
        for row in rows[1:]:
            if row[split] == "test" and row[n] != "0.0":
                row[split] = "train"
        atm_only = tmp_path / "dataset.csv"
        with open(atm_only, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert main(["evaluate", "--models", str(zero_model(tmp_path)), "--dataset",
                     str(atm_only), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "invalid input: region 'itm' has no test rows\n"
        assert not out.exists()

    def test_price_and_evaluate_agree(self, small_dataset, tmp_path):
        # price and evaluate both recompute the Hagan baseline and the
        # features from the point, so only the one-row and batched products'
        # summation order separates them.
        rows = load_dataset(small_dataset).split_samples("test")
        for arch in sorted(ARCHS):
            assert main(["train", "--dataset", str(small_dataset), "--arch", arch,
                         "--epochs", "3", "--seed", "3", "--out", str(tmp_path)]) == 0
            bundle = load_model(tmp_path / f"model_{arch}.json")
            single = np.array([predict_vol(bundle, s.point) for s in rows])
            batch = predict_from_rows(bundle, rows)
            assert np.max(np.abs(single - batch)) <= 1e-12 * np.max(np.abs(batch)), arch


def with_fields(**values):
    """A fault that sets the named fields of a row."""
    return lambda row: [values.get(name, text) for name, text in zip(CSV_HEADER, row)]


# One fault in the first data row of a dataset CSV; train must exit 2.
BROKEN_ROWS = {
    "short row": lambda row: row[:-1],
    "non-numeric field": with_fields(alpha="abc"),
    "bad split label": with_fields(split="training"),
    "bad valid flag": with_fields(valid="yes"),
    "non-finite valid row": with_fields(sigma_mc="nan", valid="true"),
    "rho out of domain": with_fields(rho="0.99"),
    # Longer than the csv module's field size limit (131072 characters).
    "over-long field": with_fields(alpha="1" * 200_000),
    # The maturity bracket goes negative on a valid row.
    "valid row outside the closed form's domain": with_fields(T="5", rho="-0.95", nu="10",
                                                              valid="true"),
    # F0/K underflows to 0 on a valid row.
    "valid row whose F0/K underflows": with_fields(F0="1e-200", K="1e200", valid="true"),
    # Written as the byte 0xff, which UTF-8 cannot decode; no line is known.
    "non-UTF-8 byte": with_fields(alpha="0.2\xff"),
}


@pytest.mark.parametrize("fault", sorted(BROKEN_ROWS))
def test_broken_dataset_exit_2_one_line(small_dataset, tmp_path, capsys, fault):
    rows = read_csv(small_dataset)
    rows[1] = BROKEN_ROWS[fault](rows[1])
    bad = tmp_path / "dataset.csv"
    with open(bad, "w", newline="", encoding="latin-1") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["train", "--dataset", str(bad), "--arch", "ndn", "--epochs", "1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invalid input:")
    assert str(bad) in err
    assert fault == "non-UTF-8 byte" or f"{bad}: line 2:" in err


def test_file_with_stored_closed_form_exit_2(tmp_path, capsys):
    # A file that still stores the closed form and the features is refused
    # by its header.
    old = tmp_path / "dataset.csv"
    old.write_text("T,F0,K,alpha,beta,rho,nu,sigma_hagan,sigma_mc,q,sigma_min,d_h,sigma0,"
                   "n,split,valid\n")
    assert main(["train", "--dataset", str(old), "--arch", "ndn", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unexpected dataset header" in err


# JSON nested deeper than the parser's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def edited(fault):
    """The text of a model file whose parsed payload ``fault`` edits."""
    def text(payload):
        fault(payload)
        return json.dumps(payload)
    return text


# One fault per model file, as the file's text from its parsed payload;
# price must exit 2.
BROKEN_MODELS = {
    "no layers": edited(lambda payload: payload.pop("layers")),
    "shape chain": edited(lambda payload: payload["layers"][1]["w"].pop()),
    "denominator bracket": edited(lambda payload: payload.update(hagan_bracket="denominator")),
    "bn momentum": edited(lambda payload: payload["layers"][0]["bn"].update(momentum=0.2)),
    "bn eps": edited(lambda payload: payload["layers"][1]["bn"].update(eps=1e-3)),
    "v1 format": edited(to_v1),
    "nested JSON": lambda payload: DEEP_JSON,
    # Written as the byte 0xff, which UTF-8 cannot decode.
    "non-UTF-8 byte": lambda payload: "\xff" + json.dumps(payload),
}


class TestPrice:
    def test_zero_residual_model_prints_hagan(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        code = main(["price", "--model", str(model), "--T", "1.0", "--F0", "1.0",
                     "--K", "1.1", "--alpha", "0.2", "--beta", "0.5",
                     "--rho", "-0.8", "--nu", "1.2"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        expected = hagan_vol(SabrPoint(T=1.0, F0=1.0, K=1.1, alpha=0.2,
                                       beta=0.5, rho=-0.8, nu=1.2))
        assert printed == pytest.approx(expected, rel=1e-9)

    def test_beta_near_one_beside_the_money_prices(self, tmp_path, capsys):
        # Beside the money at beta = 1 - 1e-8, where the power form
        # (K^(1-b) - F0^(1-b))/(1-b) of q cancels to 0.
        model = zero_model(tmp_path)
        code = main(["price", "--model", str(model), "--T", "0.3333333333333333",
                     "--F0", "0.028072915716929766", "--K", "0.02807291543591988",
                     "--alpha", "0.022215206332528915", "--beta", "0.99999999",
                     "--rho", "-0.24974970959610907", "--nu", "0.2371752439431079"])
        assert code == 0
        assert math.isfinite(float(capsys.readouterr().out.strip()))

    def test_malformed_input_exit_2(self, tmp_path):
        model = zero_model(tmp_path, arch="resnn")
        assert main(["price", "--model", str(model), "--K", "1.0",
                     "--rho", "2.0"]) == 2

    @pytest.mark.parametrize("fault", sorted(BROKEN_MODELS))
    def test_broken_model_exit_2_one_line(self, tmp_path, capsys, fault):
        model = zero_model(tmp_path)
        model.write_text(BROKEN_MODELS[fault](json.loads(model.read_text())),
                         encoding="latin-1")
        assert main(["price", "--model", str(model), "--K", "1.1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert str(model) in err

    @pytest.mark.parametrize("forward", ["1e-170", "1e-310"])
    def test_tiny_forward_exit_3_one_line(self, tmp_path, capsys, forward):
        # Valid points at which F0*K underflows or alpha/F0^(1-beta)
        # overflows.
        model = zero_model(tmp_path)
        assert main(["price", "--model", str(model), "--F0", forward, "--K", forward,
                     "--beta", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure:")

    def test_infinite_closed_form_exit_3_one_line(self, tmp_path, capsys):
        # A valid point at the money at which the smile formula overflows to inf.
        model = zero_model(tmp_path)
        assert main(["price", "--model", str(model), "--F0", "1e-158", "--K", "1e-158",
                     "--beta", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: closed form fails: vol inf\n"

    @pytest.mark.parametrize("arch, forward, strike", [("resnn", "1e-200", "1e200"),
                                                       ("georesnn", "1e200", "1e-200")])
    def test_underflowing_ratio_exit_3_one_line(self, tmp_path, capsys, arch, forward, strike):
        # Valid points at which F0/K (in the closed form) or K/F0 (in the
        # features) underflows to 0, so its log fails.
        model = zero_model(tmp_path, arch=arch)
        assert main(["price", "--model", str(model), "--T", "1", "--F0", forward, "--K", strike,
                     "--alpha", "0.2", "--beta", "0.5", "--rho", "-0.2", "--nu", "0.3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure:")

    def test_missing_required_flag_exit_2(self, tmp_path):
        assert main(["price", "--model", "nowhere.json"]) == 2

    def test_negative_served_vol_exit_3_one_line(self, tmp_path, capsys):
        # An output bias of -2 serves -1 times the closed form.
        bundle = zero_output(init_bundle("resnn", seed=0))
        bundle.layers[-1].b[:] = -2.0
        save_model(bundle, tmp_path / "resnn.json")
        assert main(["price", "--model", str(tmp_path / "resnn.json"), "--K", "1.1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("numerical failure: model served vol -")

    def test_overflowing_forward_exit_3_one_line(self, tmp_path, capsys):
        # A valid point whose K near 1e308 overflows the first layer's dot
        # product: numpy's warning, an error here, is off while the command
        # runs, and the NaN closed form ends it with one line.
        model = tmp_path / "resnn.json"
        save_model(init_bundle("resnn", seed=0), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["price", "--model", str(model), "--T", "6.096359085174444",
                         "--F0", "1.9431402358292322e-198", "--K", "9.833214986876883e+307",
                         "--alpha", "4.288010113395358e-163", "--beta", "1",
                         "--rho", "0.5001457842538533", "--nu", "1.0738153609261267"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure:")


# The exit code and the stderr line's prefix that each exception class ends
# a command with: a ConfigError or a plain ValueError is bad input, any
# other toolkit or arithmetic failure is numerical.
EXITS = {
    errors.SabrkitError: (3, "numerical failure:"),
    errors.PriceOutOfBounds: (3, "numerical failure:"),
    errors.NoConvergence: (3, "numerical failure:"),
    errors.DomainError: (3, "numerical failure:"),
    errors.NegativeVol: (3, "numerical failure:"),
    errors.NonFinite: (3, "numerical failure:"),
    errors.ConfigError: (2, "invalid input:"),
    ValueError: (2, "invalid input:"),
    ZeroDivisionError: (3, "numerical failure:"),
    OSError: (2, "io error:"),
    MemoryError: (2, "out of memory:"),
}


def test_exit_table_names_every_error_class():
    classes = {v for v in vars(errors).values() if isinstance(v, type)}
    assert classes <= EXITS.keys()


@pytest.mark.parametrize("error", EXITS, ids=lambda error: error.__name__)
def test_exit_code_follows_the_exception_class(monkeypatch, capsys, error):
    def fail(args):
        raise error("what went wrong")

    monkeypatch.setattr(cli, "cmd_price", fail)
    code, prefix = EXITS[error]
    assert main(["price", "--model", "model.json", "--K", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix} what went wrong\n"


@pytest.mark.parametrize("argv", [
    ["smile", "--paths", "2000", "--n-strikes", "2", "--hagan-bracket", "numerator"],
    ["generate", "--configs", "2", "--paths", "2000", "--out", "OUT",
     "--hagan-bracket", "numerator"],
    ["train", "--dataset", "DATA", "--arch", "ndn", "--epochs", "1", "--out", "OUT",
     "--hagan-bracket", "numerator"],
    ["evaluate", "--models", "MODEL", "--dataset", "DATA", "--out", "OUT",
     "--region-mode", "grid"],
    ["smile", "--paths", "2000", "--n-strikes", "2", "--sigma-scheme", "log-exact"],
    ["generate", "--configs", "2", "--paths", "2000", "--out", "OUT",
     "--sigma-scheme", "log-exact"],
    ["evaluate", "--models", "MODEL", "--dataset", "DATA", "--out", "OUT",
     "--sigma-scheme", "log-exact"],
    ["bench", "--model", "MODEL", "--points", "150", "--paths", "2000",
     "--sigma-scheme", "log-exact"],
    ["evaluate", "--models", "MODEL", "--dataset", "DATA", "--out", "OUT", "--bench"],
], ids=["smile bracket", "generate bracket", "train bracket", "evaluate region mode",
        "smile sigma scheme", "generate sigma scheme", "evaluate sigma scheme",
        "bench sigma scheme", "evaluate bench"])
def test_removed_flag_exit_2(small_dataset, tmp_path, capsys, argv):
    out = tmp_path / "out"
    names = {"OUT": str(out), "DATA": str(small_dataset), "MODEL": str(zero_model(tmp_path))}
    assert main([names.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invalid input: unrecognized arguments")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["smile", "--help"]], ids=["top level", "smile"])
def test_help_exit_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sabrkit") and captured.err == ""


def test_line_break_in_a_token_one_line(capsys):
    assert main(["smile", "--a\nb"]) == 2
    assert capsys.readouterr().err == "invalid input: unrecognized arguments: --a\\nb\n"


def test_line_break_in_a_dataset_path_one_line(small_dataset, tmp_path, capsys):
    rows = read_csv(small_dataset)
    rows[1] = rows[1][:-1]
    bad = tmp_path / "data\nset.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(bad), "--arch", "ndn", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"invalid input: {tmp_path}/data\\nset.csv: line 2: ")
    assert not out.exists()


# One valid argv per subcommand; a mutation makes each fail while parsing,
# so no example simulates, trains or opens a file.
BASE_ARGVS = {
    "smile": ["smile", "--paths", "1000", "--out", "OUT"],
    "generate": ["generate", "--configs", "2", "--paths", "1000", "--out", "OUT"],
    "train": ["train", "--dataset", "data.csv", "--arch", "ndn", "--epochs", "1",
              "--out", "OUT"],
    "evaluate": ["evaluate", "--models", "model.json", "--dataset", "data.csv",
                 "--paths", "1000", "--out", "OUT"],
    "price": ["price", "--model", "model.json", "--K", "1"],
    "bench": ["bench", "--model", "model.json", "--points", "150", "--paths", "1000"],
}
SUBCOMMANDS = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
ONE_LINE_TEXT = st.text(st.characters(exclude_categories=("C", "Zl", "Zp")), max_size=12)


def _type_accepts(convert, text):
    try:
        convert(text)
    except ValueError:
        return False
    return True


@st.composite
def rejected_argvs(draw):
    """A valid argv with one mutation that argparse rejects."""
    command = draw(st.sampled_from(sorted(BASE_ARGVS)))
    argv = list(BASE_ARGVS[command])
    actions = {flag: a for a in SUBCOMMANDS[command]._actions for flag in a.option_strings}
    typed = sorted(f for f, a in actions.items() if a.type in (int, float))
    chosen = sorted(f for f, a in actions.items() if a.choices)
    kinds = ["type", "unknown flag", "prefix", "no value", "command"] + ["choices"] * bool(chosen)
    kind = draw(st.sampled_from(kinds))
    if kind == "type":
        flag = draw(st.sampled_from(typed))
        convert = actions[flag].type
        argv += [flag, draw(ONE_LINE_TEXT.filter(lambda t: not _type_accepts(convert, t)))]
    elif kind == "choices":
        flag = draw(st.sampled_from(chosen))
        argv += [flag, draw(ONE_LINE_TEXT.filter(lambda t: t not in actions[flag].choices))]
    elif kind == "unknown flag":
        name = draw(ONE_LINE_TEXT.filter(bool))
        assume(("--" + name).split("=", 1)[0] not in actions)
        argv.append("--" + name)
    elif kind == "prefix":
        flag = draw(st.sampled_from([f for f in actions if len(f) > 3]))
        prefix = flag[:draw(st.integers(3, len(flag) - 1))]
        assume(prefix not in actions)
        argv.append(prefix)
    elif kind == "no value":
        del argv[draw(st.sampled_from(range(2, len(argv), 2)))]
    else:
        name = draw(st.one_of(st.none(), ONE_LINE_TEXT.filter(
            lambda t: not t.startswith("-") and t not in SUBCOMMANDS)))
        argv = argv[1:] if name is None else [name, *argv[1:]]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=rejected_argvs())
def test_rejected_flag_exit_2_one_line(tmp_path_factory, argv):
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(out) if a == "OUT" else a for a in argv])
    err = stderr.getvalue()
    assert (code, stdout.getvalue()) == (2, "")
    assert err.count("\n") == 1 and len(err.splitlines()) == 1
    assert err.startswith("invalid input:")
    assert not out.exists()


class TestConfigOverlay:
    def test_config_file_sets_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"configs": 5, "paths": 2000, "seed": 9}))
        code = main(["--config", str(cfg), "generate", "--out", str(tmp_path / "a"),
                     "--seed", "10"])
        assert code == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["rows"] == 55
        assert manifest["sample_seed"] == 10  # flag beats config file
        assert manifest["mc_config"]["paths"] == 2000

    @pytest.mark.parametrize("argv", [
        ["--config", "CFG", "generate", "--path", "3000", "--configs", "2", "--out", "OUT"],
        ["--conf", "CFG", "generate", "--paths", "3000", "--configs", "2", "--out", "OUT"],
    ], ids=["subcommand flag", "top-level flag"])
    def test_abbreviated_flag_exit_2(self, tmp_path, capsys, argv):
        # Flags are spelled in full: an abbreviated one would not count as
        # explicit, and the file's value would win over it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 2000}))
        out = tmp_path / "out"
        assert main([{"CFG": str(cfg), "OUT": str(out)}.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--conf", "CFG", "generate", "--configs", "2", "--out", "OUT"],
        ["--config", "CFG", "--conf", "CFG", "generate", "--configs", "2", "--out", "OUT"],
        ["--conf", "generate", "--configs", "2", "--out", "OUT"],
    ], ids=["before the command", "after --config", "no value"])
    def test_unknown_top_level_flag_named(self, tmp_path, capsys, argv):
        # The token after the flag is not taken for the command and named.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 2000}))
        out = tmp_path / "out"
        assert main([{"CFG": str(cfg), "OUT": str(out)}.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == "invalid input: unrecognized arguments: --conf\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, argv", [
        (json.dumps([5, 2000]), ["generate", "--out", "OUT"]),
        (json.dumps({"paths": "abc"}), ["generate", "--configs", "2", "--out", "OUT"]),
        (json.dumps({"epochs": "x"}),
         ["train", "--dataset", "d.csv", "--arch", "ndn", "--out", "OUT"]),
        (json.dumps({"cv_vol": "paper_alpha"}), ["generate", "--configs", "2", "--out", "OUT"]),
        (json.dumps({"sigma_scheme": "log-exact"}),
         ["generate", "--configs", "2", "--out", "OUT"]),
        (json.dumps({"pathz": 2000}), ["generate", "--configs", "2", "--out", "OUT"]),
        ("{not json", ["generate", "--configs", "2", "--out", "OUT"]),
        (DEEP_JSON, ["smile", "--paths", "2000", "--out", "OUT"]),
        # Written as the byte 0xff, which UTF-8 cannot decode.
        ('{"paths": 2000\xff}', ["smile", "--paths", "2000", "--out", "OUT"]),
    ], ids=["top-level list", "wrong-typed paths", "wrong-typed epochs", "bad choice",
            "removed sigma scheme", "unknown option", "JSON syntax", "nested JSON",
            "non-UTF-8 byte"])
    def test_bad_config_file_exit_2_one_line(self, tmp_path, capsys, text, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="latin-1")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *[str(out) if a == "OUT" else a for a in argv]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"invalid input: {cfg}: ")
        assert not out.exists()


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        model = zero_model(tmp_path, arch="ndn")
        code = main(["bench", "--model", str(model), "--points", "150",
                     "--paths", "2000"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["median_us"] > 0
        assert stats["speedup_vs_mc"] > 0
        assert stats["batch_points_per_s"] > 0
