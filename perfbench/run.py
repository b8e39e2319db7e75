"""sabrkit benchmark command.

    python3 perfbench/run.py --workload generate|train|infer --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports sabrkit from ``src/`` there
and nowhere else. It makes the workload's inputs from ``--seed``, then
repeats three set-ups and the workload's round, in turn, until
``--seconds`` have passed (at least twice), and checks the outputs.
Human-readable lines come first, then a ``machine`` line, and the last line
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``E2E`` below).
With ``--trace 1`` they are the per-layer ones (``layers.PER_LAYER``): the
named workload alternates plain and traced rounds, then the other two
workloads each run one traced round at the small size, so every per-layer
metric is present; a metric is taken from the named workload whenever it
calls that function. Spans and the full record go to ``.bench_out/``.

The exit code is 0 when every output check passed, 1 when one failed, and
non-zero without a result when sabrkit's sources are missing.
"""

import os

# Every run uses one BLAS thread, set before numpy is first imported.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3

# name -> unit. Each workload defines the throughput, latency and quality
# it reports under these names; see perfbench/README.md.
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "quality": "ratio",
}
# Printed with the end-to-end metrics but not among them: a p99 is set by
# the host's speed spells more than by the program (see workloads.loaded).
EXTRA = {"latency_p99_us": "us"}


def import_sabrkit():
    """Put the checkout's ``src/`` first on the path and import sabrkit from it."""
    if not os.path.isfile(os.path.join(SRC, "sabrkit", "__init__.py")):
        raise SystemExit(f"sabrkit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import sabrkit

    if not os.path.abspath(sabrkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported sabrkit from {sabrkit.__file__}, not from {SRC}")


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _repeat(fns, seconds):
    """Call each of ``fns`` in turn until ``seconds`` have passed and each
    has run ``MIN_ROUNDS`` times; returns one result list per function."""
    results = [[] for _ in fns]
    deadline = perf_counter() + seconds
    while min(len(r) for r in results) < MIN_ROUNDS or perf_counter() < deadline:
        for fn, out in zip(fns, results):
            out.append(fn())
    return results


def _untraced(w, raw, seconds):
    import numpy as np

    from workloads import loaded

    # Set-ups before every round, so set-up is sampled across the run. Each
    # set-up is timed in pieces, like a round.
    setups, rounds = _repeat([lambda: [w.setup(raw) for _ in range(SETUPS_PER_ROUND)],
                              lambda: w.round(raw)], seconds)
    setup_pieces = [pieces for batch in setups for pieces in batch]

    # Every round makes the same calls in the same order: the p50 is taken
    # over each call's figure across rounds (see workloads.loaded), the p99
    # within each round and then the median round, as the tail a caller sees.
    calls = w.calls_ns(rounds)
    values = {
        "setup_s": float(loaded(setup_pieces, axis=0).sum()) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": w.throughput(rounds),
        "latency_p50_us": float(np.percentile(calls, 50)) / 1e3,
        "latency_p99_us": float(np.median([np.percentile(r.latencies_ns, 99) for r in rounds])) / 1e3,
        "quality": float(np.median([r.quality for r in rounds])),
    }
    aliases = {name: (values[name], unit) for name, unit in EXTRA.items()}
    aliases.update(w.aliases(rounds, values))
    return {
        "rounds": rounds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()},
        "aliases": {k: {"value": v, "unit": u} for k, (v, u) in aliases.items()},
        "checks": w.checks(rounds),
    }


def _traced_pass(w, raw, seconds):
    """Traced set-up, then rounds; with ``seconds`` None, one traced round."""
    from tracer import Tracer
    from workloads import INTERNAL, public_api

    tracer = Tracer()
    traced_api = public_api(tracer)
    with tracer.patched(INTERNAL):
        w.setup(traced_api)
    runs = []

    def traced_round():
        tracer.run_id += 1
        runs.append(tracer.run_id)
        with tracer.patched(INTERNAL):
            return w.round(traced_api)

    if seconds is None:
        plain, traced = [], [traced_round()]
    else:
        plain, traced = _repeat([lambda: w.round(raw), traced_round], seconds)
    w.traced_extras(tracer)
    return tracer, runs, plain, traced


def _traced(w, raw, seconds, seed, workdir):
    import numpy as np

    import layers
    from workloads import TINY, WORKLOADS, public_api

    tracer, runs, plain, traced = _traced_pass(w, raw, seconds)
    spans = tracer.spans()
    problems = spans.check_nesting()
    metrics = layers.call_metrics(spans, tracer)
    metrics.update(layers.share_metrics(spans, runs, [r.wall_ns for r in traced]))
    metrics["trace_overhead_frac"] = (
        float(np.median([r.wall_ns for r in traced])) / float(np.median([r.wall_ns for r in plain])) - 1.0)
    tracers = {w.name: tracer}
    for name, cls in WORKLOADS.items():
        if name == w.name:
            continue
        sub = os.path.join(workdir, name)
        os.makedirs(sub)
        other = cls(seed, TINY, sub)
        other.prepare(public_api())
        other_tracer, _, _, other_rounds = _traced_pass(other, None, None)
        problems += other_tracer.spans().check_nesting()
        problems += other.checks(other_rounds)
        for key, value in layers.call_metrics(other_tracer.spans(), other_tracer).items():
            metrics.setdefault(key, value)
        tracers[name] = other_tracer
    missing = sorted(set(layers.PER_LAYER) - set(metrics))
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    for name, t in tracers.items():
        t.dump(os.path.join(OUT, f"trace-{w.name}-seed{seed}-{name}.json.gz"))
    rounds = plain + traced
    return {
        "rounds": rounds,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in layers.PER_LAYER.items()
                    if k in metrics},
        "aliases": {},
        "checks": w.checks(rounds) + problems,
        "failures": {k: dict(t.failures) for k, t in tracers.items()},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload and return its result record."""
    from workloads import FULL, WORKLOADS, public_api

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        w = WORKLOADS[workload](seed, size or FULL, workdir)
        raw = public_api()
        w.prepare(raw)
        if trace:
            record = _traced(w, raw, seconds, seed, workdir)
        else:
            record = _untraced(w, raw, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = record.pop("rounds")
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds),
        "correct": not record["checks"],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "machine": machine_block(),
    })
    return record


def report(record: dict) -> None:
    print(f"sabrkit benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} rounds={record['rounds']}")
    for name, m in {**record["metrics"], **record["aliases"]}.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {m['unit']}")
    for problem in record["checks"]:
        print(f"  CHECK FAILED: {problem}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    path = os.path.join(OUT, f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": record["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_sabrkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
