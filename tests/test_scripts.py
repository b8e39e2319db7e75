"""The example scripts and the ``python -m sabrkit.cli`` entry point run end
to end at a tiny size, each in its own interpreter, as a user would start
them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=600)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_module_entry_point_exit_codes():
    smile = ("-m", "sabrkit.cli", "smile", "--paths", "2000", "--n-strikes", "3")
    proc = run_python(*smile)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4  # header + 3 strikes
    proc = run_python(*smile, "--beta", "2")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("invalid input:")


def test_desk_experiment(tmp_path):
    proc = run_script("desk_experiment.py", "--out", str(tmp_path), "--configs", "40",
                      "--paths", "2000", "--epochs", "2", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    archs = sorted(path.name.split("_")[1]
                   for path in (tmp_path / "reports").glob("metrics_*.json"))
    assert archs == ["geonn", "georesnn", "ndn", "resnn"]
