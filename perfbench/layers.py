"""Per-layer metrics computed from one traced pass.

Per-call figures are medians over the pass's spans of that name. A metric
whose function was not called in the pass comes back as None, so the
caller can take it from another pass.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("pricing", "hagan", "geometry", "mc", "datagen", "net", "evaluation")

# name -> unit, in the order printed.
PER_LAYER = {
    "mc.simulate_terminals.ns_per_path_step": "ns",
    "mc.simulate_terminals.share": "ratio",
    "mc.draw_floor.ns_per_normal": "ns",
    "mc.price_from_terminals.us_per_strike": "us",
    "mc.implied_vol_from_estimate.self_us": "us",
    "pricing.implied_vol.us_per_call": "us",
    "pricing.implied_vol.failed.PriceOutOfBounds": "count",
    "pricing.implied_vol.failed.NoConvergence": "count",
    "pricing.black_price.calls_per_inversion": "count",
    "hagan.hagan_vol.us_per_point": "us",
    "hagan.hagan_vol.failed.NegativeVol": "count",
    "geometry.features.us_per_point": "us",
    "geometry.features.failed.DomainError": "count",
    "datagen.build_dataset.self_ms_per_config": "ms",
    "datagen.non_sim_ms_per_config": "ms",
    "datagen.filter_outliers.ms": "ms",
    "datagen.split_dataset.ms": "ms",
    "datagen.save_dataset.ms": "ms",
    "datagen.save_dataset.bytes": "bytes",
    "datagen.load_dataset.ms": "ms",
    "datagen.load_dataset.bytes": "bytes",
    "net.forward.us_per_row.b128": "us",
    "net.backward.us_per_row": "us",
    "net.adam_step.us_per_step": "us",
    "net.design_matrix.us_per_row": "us",
    "net.train.self_s": "s",
    "net.save_model.ms": "ms",
    "net.forward.us_per_call.b1": "us",
    "net.predict_vol.self_us": "us",
    "net.forward.us_per_row.b1024": "us",
    "net.load_model.ms": "ms",
    "evaluation.evaluate_model.ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.unaccounted_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

_SCALE = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Failure counters: metric name -> (span name, exception class).
_FAILURES = {
    "pricing.implied_vol.failed.PriceOutOfBounds": ("pricing.implied_vol", "PriceOutOfBounds"),
    "pricing.implied_vol.failed.NoConvergence": ("pricing.implied_vol", "NoConvergence"),
    "hagan.hagan_vol.failed.NegativeVol": ("hagan.hagan_vol", "NegativeVol"),
    "geometry.features.failed.DomainError": ("geometry.features", "DomainError"),
}


def _median(values, unit: str):
    if values.size == 0:
        return None
    return float(np.median(values)) / _SCALE[unit]


def call_metrics(spans, tracer) -> dict:
    """Metrics of single calls; None where the pass made no such call."""
    dur, own, work = spans.dur, spans.self_time, spans.work

    def per_call(name, unit, values=dur, rows=None):
        m = spans.mask(name)
        if rows is not None:
            m &= work == rows
        return _median(values[m], unit)

    def per_work(name, unit, values=dur, rows=None):
        m = spans.mask(name)
        if rows is not None:
            m &= work == rows
        return _median(values[m] / work[m], unit)

    out = {
        "mc.simulate_terminals.ns_per_path_step": per_work("mc.simulate_terminals", "ns"),
        "mc.price_from_terminals.us_per_strike": per_call("mc.price_from_terminals", "us"),
        "mc.implied_vol_from_estimate.self_us": per_call("mc.implied_vol_from_estimate", "us", own),
        "pricing.implied_vol.us_per_call": per_call("pricing.implied_vol", "us"),
        "hagan.hagan_vol.us_per_point": per_call("hagan.hagan_vol", "us"),
        "geometry.features.us_per_point": per_call("geometry.features", "us"),
        "datagen.build_dataset.self_ms_per_config": per_work("datagen.build_dataset", "ms", own),
        "datagen.filter_outliers.ms": per_call("datagen.filter_outliers", "ms"),
        "datagen.split_dataset.ms": per_call("datagen.split_dataset", "ms"),
        "datagen.save_dataset.ms": per_call("datagen.save_dataset", "ms"),
        "datagen.load_dataset.ms": per_call("datagen.load_dataset", "ms"),
        "net.forward.us_per_row.b128": per_work("net.forward", "us", rows=128),
        "net.backward.us_per_row": per_work("net.backward", "us"),
        "net.adam_step.us_per_step": per_call("net.adam_step", "us"),
        "net.design_matrix.us_per_row": per_work("net.design_matrix", "us"),
        "net.train.self_s": per_call("net.train", "s", own),
        "net.save_model.ms": per_call("net.save_model", "ms"),
        "net.forward.us_per_call.b1": per_call("net.forward", "us", rows=1),
        "net.predict_vol.self_us": per_call("net.predict_vol", "us", own),
        "net.forward.us_per_row.b1024": per_work("net.forward", "us", rows=1024),
        "net.load_model.ms": per_call("net.load_model", "ms"),
        "evaluation.evaluate_model.ms": per_call("evaluation.evaluate_model", "ms"),
    }
    builds = spans.mask("datagen.build_dataset")
    if builds.any():
        non_sim = dur[builds] - spans.child_dur_of("datagen.build_dataset", "mc.simulate_terminals")
        out["datagen.non_sim_ms_per_config"] = _median(non_sim / work[builds], "ms")
    inversions = int(spans.mask("pricing.implied_vol").sum())
    if inversions:
        out["pricing.black_price.calls_per_inversion"] = (
            tracer.calls["pricing.black_price.in_implied_vol"] / inversions)
    for metric, (span, exc) in _FAILURES.items():
        if spans.mask(span).any():
            out[metric] = tracer.failures[f"{span}.failed.{exc}"]
    for key in ("mc.draw_floor.ns_per_normal", "datagen.save_dataset.bytes",
                "datagen.load_dataset.bytes"):
        if key in tracer.values:
            out[key] = tracer.values[key]
    return {k: v for k, v in out.items() if v is not None}


def share_metrics(spans, round_runs, round_walls_ns) -> dict:
    """Where the wall time of the traced rounds went, by layer.

    ``trace.unaccounted_frac`` is the part of the rounds' wall time outside
    every span: the benchmark's own loop.
    """
    in_rounds = np.isin(spans.run, list(round_runs))
    wall = float(sum(round_walls_ns))
    layer = spans.layer_of()
    out = {f"{name}.self_share": float(spans.self_time[in_rounds & (layer == name)].sum()) / wall
           for name in LAYERS}
    sim = in_rounds & spans.mask("mc.simulate_terminals")
    out["mc.simulate_terminals.share"] = float(spans.self_time[sim].sum()) / wall
    roots = in_rounds & (spans.parent < 0)
    out["trace.unaccounted_frac"] = 1.0 - float(spans.dur[roots].sum()) / wall
    return out
