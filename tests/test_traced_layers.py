"""The benchmark's traced layers: each one, called through the bench's own
wrappers, records its span and the counts its counter reads off the call.

A library change that breaks an attribute a counter reads (a diagram's
``finite_pairs``, a critical point's ``kind.value``, a result's ``dim``)
fails here, not only in a traced benchmark run."""

import datetime as dt
import importlib
import sys
from pathlib import Path

import numpy as np

from topofield import (
    ClimateSpec,
    FieldStack,
    LambdaMap,
    LeadTime,
    NormStats,
    RegWeights,
    ScalarField,
    SplitSpec,
    classify_critical_points,
    make_eval_record,
    sublevel_persistence,
)


def bench_spans():
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(bench)


def layer_arguments(tmp_path) -> dict:
    """One small call of every traced layer, in an order where each file it reads is written first."""
    rng = np.random.default_rng(65)
    a, b, lam = rng.uniform(0.0, 1.0, (3, 12, 12))
    dates = tuple(dt.date(2015, 1, 1) + dt.timedelta(days=k) for k in range(3))
    stack = FieldStack(dates, rng.uniform(0.0, 1.0, (3, 1, 12, 12)))
    target = dt.date(2013, 6, 1)  # a tau-45 sample reads three June 1sts and t - 135, t - 90, t - 45
    sample_dates = sorted([dt.date(y, 6, 1) for y in (2010, 2011, 2012)]
                          + [target - dt.timedelta(days=k) for k in (135, 90, 45, 0)])
    sample_values = np.zeros((len(sample_dates), 4, 5, 6))
    sample_values[:, 0] = rng.uniform(0.0, 1.0, (len(sample_dates), 5, 6))
    stats, split = NormStats(0.0, 1.0), SplitSpec(frozenset({2015}))
    record = make_eval_record(a, b, lam, stats, dates[0], 45)
    path = tmp_path / "stack.gfs"
    return {
        ("gfs", "write_stack"): (stack, path),
        ("gfs", "read_stack"): (path,),
        ("field", "compute_norm_stats"): (stack, split),
        ("field", "normalize_stack"): (stack, stats),
        ("field", "denormalize"): (ScalarField(a), stats),
        ("order", "vertex_ranks"): (a,),
        ("structural", "classify_critical_points"): (a,),
        ("structural", "extract_saddle_contours"): (a, [p for p in classify_critical_points(a)
                                                        if p.kind.value == "saddle"]),
        ("structural", "build_structural_stack"): (stack,),
        ("persistence", "sublevel_persistence"): (a, 1),
        ("persistence", "sublevel_persistence_reduction"): (a, 0),
        ("persistence", "bottleneck_distance"): (sublevel_persistence(a, 1), sublevel_persistence(b, 1)),
        ("temporal", "build_sample"): (FieldStack(tuple(sample_dates), sample_values), target, LeadTime(45)),
        ("temporal", "build_climatology"): (stack, split),
        ("fusion", "fuse"): (ScalarField(a), ScalarField(b), LambdaMap.of(lam)),
        ("fusion", "apply_residual"): (ScalarField(a), ScalarField(b)),
        ("fusion", "l_reg"): (LambdaMap.of(lam), RegWeights(1.0, 1.0, 1.0)),
        ("losses", "topo_loss"): (a, b),
        ("losses", "ssim"): (a, b),
        ("metrics", "kde_overlap"): (a.ravel(), b.ravel()),
        ("metrics", "make_eval_record"): (a, b, lam, stats, dates[0], 45),
        ("metrics", "seasonal_summary"): ([record],),
        ("synthetic", "generate_climate"): (ClimateSpec(4, 2, 2),),
    }


def test_every_traced_layer_records_its_span_and_counts(tmp_path):
    spans = bench_spans()
    calls = layer_arguments(tmp_path)
    assert set(calls) == set(spans.LAYERS)
    tracer = spans.Tracer("test")
    spans.install(tracer)
    try:
        for (module, function), args in calls.items():
            getattr(importlib.import_module(f"topofield.{module}"), function)(*args)
            name, counter = spans.LAYERS[module, function]
            span = tracer.spans[-1]  # the call's own span ends after any it opened inside
            assert span["parent"] is None and span["end"] >= span["start"], (module, function)
            assert span["name"] == (name(args, {}) if callable(name) else name), (module, function)
            if counter is not None:
                assert span["counts"] and all(v >= 0 for v in span["counts"].values()), (module, function)
    finally:
        spans.uninstall()
    assert not any(hasattr(getattr(importlib.import_module(f"topofield.{module}"), function),
                           "__wrapped_by_perfbench__") for module, function in calls)
