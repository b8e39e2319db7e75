"""Self-check of the benchmark, at a small size.

    python3 perfbench/selfcheck.py

Checks that:
  * the tracer's self times add up: a parent's self time plus its
    children's self times equal the parent span, and a wrapped function's
    exception is counted by class and re-raised unchanged;
  * every workload, traced and untraced, emits exactly the metrics that
    BENCHMARK.json names, each with its unit, and passes its output checks
    (which include the span identities of every traced pass);
  * two untraced runs with one seed give the same output fingerprints;
  * on generate, the layers' self times cover the traced rounds' wall time;
  * a train call's step intervals cover the call, one per optimizer step,
    so its figure is built from the steps and not the whole call;
  * run.py fails without printing a result where sabrkit's sources are
    missing.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run  # pins BLAS threads before numpy is imported

SEED = 1


def check_tracer(fail) -> None:
    from sabrkit.errors import NegativeVol
    from tracer import Tracer

    t = Tracer()
    error = NegativeVol("inner")

    def leaf(x):
        time.sleep(0.001)
        return x

    def broken():
        raise error

    leaf = t.span(leaf, "hagan.leaf")
    broken = t.span(broken, "hagan.broken")

    def parent():
        time.sleep(0.001)
        try:
            broken()
        except NegativeVol as exc:
            if exc is not error:
                fail("wrapper did not re-raise the original exception")
        return leaf(1) + leaf(2)

    t.span(parent, "net.parent")()
    spans = t.spans()
    for problem in spans.check_nesting():
        fail(f"tracer: {problem}")
    root = spans.mask("net.parent")
    if spans.self_time.sum() != spans.dur[root].sum():
        fail("tracer: self times do not sum to the parent span")
    if t.failures != {"hagan.broken.failed.NegativeVol": 1}:
        fail(f"tracer: failures counted as {dict(t.failures)}")


def check_workloads(fail) -> None:
    from layers import PER_LAYER
    from workloads import TINY, WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if wanted[0] != run.E2E or wanted[1] != PER_LAYER:
        fail("BENCHMARK.json metric lists differ from run.E2E and layers.PER_LAYER")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        fingerprints = []
        for trace in (0, 1, 0):
            record = run.measure(name, SEED, 0, bool(trace), TINY)
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != wanted[trace]:
                fail(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                     f"missing, extra or with another unit")
            if not record["correct"]:
                fail(f"{name} trace={trace}: {record['checks']}")
            if trace == 0:
                fingerprints.append({k: a["value"] for k, a in record["aliases"].items()
                                     if a["unit"] == "sha256"})
            elif name == "generate":
                m = record["metrics"]
                covered = sum(m[f"{layer}.self_share"]["value"]
                              for layer in ("mc", "pricing", "hagan", "geometry", "datagen"))
                if abs(1.0 - covered) > max(abs(m["trace_overhead_frac"]["value"]), 0.01):
                    fail(f"generate: layer self times cover {covered:.4f} of the wall time")
        if fingerprints[0] != fingerprints[1]:
            fail(f"{name}: outputs differ between two runs with seed {SEED}")


def check_train_steps(fail) -> None:
    import math

    import numpy as np
    from workloads import TINY, BATCH_SIZE, Train, loaded, public_api, train_call_ns

    workdir = tempfile.mkdtemp(prefix="steps-", dir=run.OUT)
    try:
        w = Train(SEED, TINY, workdir)
        api = public_api()
        w.setup(api)
        r = w.round(api)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows = r.info["row_epochs"] // (4 * TINY.train_epochs)
    steps = TINY.train_epochs * math.ceil(rows / BATCH_SIZE)
    for piece, intervals in zip(r.info["train_pieces"], r.info["steps_ns"]):
        if len(intervals) != steps + 1:
            fail(f"train: {len(intervals) - 1} step stamps in a call, expected {steps}")
        if intervals.sum() != r.pieces_ns[piece]:
            fail("train: step intervals do not add up to the train call")
    # 3 epochs of 4 steps. When the steps at each place in the epoch are
    # alike and the rounds are too, the figure is the call itself.
    middle = [100.0 + k if k % 4 == 0 else 10.0 + k % 4 for k in range(1, 12)]
    call = np.array([7.0, *middle, 3.0])
    if not math.isclose(train_call_ns(np.tile(call, (5, 1)), 3), call.sum(), rel_tol=1e-12):
        fail("train_call_ns of alike steps and rounds differs from the call")
    if loaded([3, 1, 2, 4, 5]) != 4:
        fail("loaded is not the upper quartile")


def check_missing_sources(fail) -> None:
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("run.py succeeded without sabrkit sources")


def main() -> int:
    run.import_sabrkit()
    failures = []

    def fail(message):
        failures.append(message)
        print(f"FAIL {message}")

    for check in (check_tracer, check_workloads, check_train_steps, check_missing_sources):
        t0 = time.perf_counter()
        check(fail)
        print(f"{check.__name__}: {time.perf_counter() - t0:.1f}s")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
