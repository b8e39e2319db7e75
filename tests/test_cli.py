import csv
import hashlib
import json

import numpy as np
import pytest

from sabrkit.cli import main
from sabrkit.datagen import load_dataset
from sabrkit.hagan import SabrPoint, hagan_vol
from sabrkit.net import ARCHS, init_bundle, load_model, predict_from_rows, predict_vol, save_model


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def zero_model(tmp_path, arch="georesnn"):
    bundle = init_bundle(arch, seed=0)
    for layer in bundle.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    path = tmp_path / f"{arch}.json"
    save_model(bundle, path)
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
                                  "sigma_scheme", "base_seed", "block_size"}
        assert mc_config["min_steps"] == 10
        assert mc_config["block_size"] == 4096

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
        # deterministic given bundle, dataset and seeds
        first = reports[0].read_bytes()
        assert main(["evaluate", "--models", str(tmp_path / "model_georesnn.json"),
                     "--dataset", str(small_dataset), "--out", str(tmp_path)]) == 0
        assert reports[0].read_bytes() == first

    def test_evaluate_records_full_mc_config(self, small_dataset, tmp_path):
        model = zero_model(tmp_path)
        assert main(["evaluate", "--models", str(model), "--dataset", str(small_dataset),
                     "--cv-vol", "effective-atm", "--sweep", "--paths", "2000",
                     "--out", str(tmp_path)]) == 0
        report = json.loads(next(tmp_path.glob("metrics_georesnn_*.json")).read_text())
        assert report["mc_config"] == {
            "paths": 2000, "steps_per_year": 50, "min_steps": 10, "cv_vol_mode": "effective_atm",
            "sigma_scheme": "log_exact", "base_seed": 42, "block_size": 4096}

    def test_price_and_evaluate_agree(self, small_dataset, tmp_path):
        # price recomputes the Hagan baseline and the features from the point;
        # evaluate reads them from the dataset, which keeps 12 significant
        # digits. That rounding moves vols by up to ~1e-10 relative; a
        # baseline that differed from the dataset's would move them by 1e-6
        # and more.
        rows = load_dataset(small_dataset).split_samples("test")
        for arch in sorted(ARCHS):
            assert main(["train", "--dataset", str(small_dataset), "--arch", arch,
                         "--epochs", "3", "--seed", "3", "--out", str(tmp_path)]) == 0
            bundle = load_model(tmp_path / f"model_{arch}.json")
            single = [predict_vol(bundle, s.point) for s in rows]
            np.testing.assert_allclose(single, predict_from_rows(bundle, rows),
                                       rtol=1e-9, atol=0.0)


# One fault in the first data row of a dataset CSV; train must exit 2.
BROKEN_ROWS = {
    "short row": lambda row: row[:13],
    "non-numeric field": lambda row: row[:3] + ["abc"] + row[4:],
    "bad split label": lambda row: row[:14] + ["training", row[15]],
    "bad valid flag": lambda row: row[:15] + ["yes"],
    "non-finite valid row": lambda row: row[:8] + ["nan"] + row[9:15] + ["true"],
    "rho out of domain": lambda row: row[:5] + ["0.99"] + row[6:],
}


@pytest.mark.parametrize("fault", sorted(BROKEN_ROWS))
def test_broken_dataset_exit_2_one_line(small_dataset, tmp_path, capsys, fault):
    rows = read_csv(small_dataset)
    rows[1] = BROKEN_ROWS[fault](rows[1])
    bad = tmp_path / "dataset.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["train", "--dataset", str(bad), "--arch", "ndn", "--epochs", "1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("invalid input:")
    assert f"{bad}: line 2:" in err


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

    def test_malformed_input_exit_2(self, tmp_path):
        model = zero_model(tmp_path, arch="resnn")
        assert main(["price", "--model", str(model), "--K", "1.0",
                     "--rho", "2.0"]) == 2

    @pytest.mark.parametrize("fault", ["no layers", "shape chain", "denominator bracket"])
    def test_broken_model_exit_2_one_line(self, tmp_path, capsys, fault):
        model = zero_model(tmp_path)
        payload = json.loads(model.read_text())
        if fault == "no layers":
            del payload["layers"]
        elif fault == "shape chain":
            payload["layers"][1]["w"] = payload["layers"][1]["w"][:-1]
        else:
            payload["hagan_bracket"] = "denominator"
        model.write_text(json.dumps(payload))
        assert main(["price", "--model", str(model), "--K", "1.1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
        assert str(model) in err

    def test_missing_required_flag_exit_2(self, tmp_path):
        assert main(["price", "--model", "nowhere.json"]) == 2


@pytest.mark.parametrize("argv", [
    ["smile", "--paths", "2000", "--n-strikes", "2", "--hagan-bracket", "numerator"],
    ["generate", "--configs", "2", "--paths", "2000", "--out", "OUT",
     "--hagan-bracket", "numerator"],
    ["train", "--dataset", "DATA", "--arch", "ndn", "--epochs", "1", "--out", "OUT",
     "--hagan-bracket", "numerator"],
    ["evaluate", "--models", "MODEL", "--dataset", "DATA", "--out", "OUT",
     "--region-mode", "grid"],
], ids=["smile bracket", "generate bracket", "train bracket", "evaluate region mode"])
def test_removed_flag_exit_2(small_dataset, tmp_path, capsys, argv):
    out = tmp_path / "out"
    names = {"OUT": str(out), "DATA": str(small_dataset), "MODEL": str(zero_model(tmp_path))}
    assert main([names.get(a, a) for a in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
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
    def test_abbreviated_flag_exit_2(self, tmp_path, argv):
        # Flags are spelled in full: an abbreviated one would not count as
        # explicit, and the file's value would win over it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 2000}))
        out = tmp_path / "out"
        assert main([{"CFG": str(cfg), "OUT": str(out)}.get(a, a) for a in argv]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("payload, argv", [
        ([5, 2000], ["generate", "--out", "OUT"]),
        ({"paths": "abc"}, ["generate", "--configs", "2", "--out", "OUT"]),
        ({"epochs": "x"}, ["train", "--dataset", "d.csv", "--arch", "ndn", "--out", "OUT"]),
        ({"cv_vol": "paper_alpha"}, ["generate", "--configs", "2", "--out", "OUT"]),
    ], ids=["top-level list", "wrong-typed paths", "wrong-typed epochs", "bad choice"])
    def test_bad_config_file_exit_2_one_line(self, tmp_path, capsys, payload, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *[str(out) if a == "OUT" else a for a in argv]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input:")
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
