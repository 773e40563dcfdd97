"""Spans recorded from outside the library, and per-layer self times.

A span is one call into a layer: its name, start and end on the system-wide
monotonic clock (``time.perf_counter`` on Linux, so spans from child
processes line up with the parent's), the span that caused it, the run it
belongs to, and the work counts recorded at that boundary. Spans stay in
memory and are written out when the run ends.

:func:`install` wraps the public functions listed in :data:`LAYERS` in every
``topofield`` module that holds a reference to them; the library source is
never edited. A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

KDE_GRID_POINTS = 2048


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _kde_counts(args, kwargs, result) -> dict:
    import numpy as np

    n = sum(np.asarray(a).size for a in args[:2])
    return {"metrics.kde_samples": n, "metrics.kde_matrix_mb": 8 * KDE_GRID_POINTS * n / 1e6}


def _saddle_count(args, kwargs, result) -> dict:
    return {"structural.saddles": sum(1 for p in result if p.kind.value == "saddle")}


def _dim(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["dim"])


# (module, function) -> (span name, or a function of the call's arguments
# giving it; counts recorded from the arguments and the result, or None)
LAYERS = {
    ("gfs", "read_stack"): ("gfs.read_stack", lambda a, k, r: {"gfs.read.mb": _file_mb(a[0])}),
    ("gfs", "write_stack"): ("gfs.write_stack", lambda a, k, r: {"gfs.write.mb": _file_mb(a[1])}),
    ("field", "compute_norm_stats"): ("field.compute_norm_stats", None),
    ("field", "normalize_stack"): ("field.normalize_stack", None),
    ("field", "denormalize"): ("field.denormalize", None),
    ("order", "vertex_ranks"): ("order.vertex_ranks", None),
    ("structural", "classify_critical_points"): ("structural.classify_critical_points", _saddle_count),
    ("structural", "extract_saddle_contours"): ("structural.extract_saddle_contours", None),
    ("structural", "build_structural_stack"): ("structural.build_structural_stack", None),
    ("persistence", "sublevel_persistence"): (
        lambda a, k: f"persistence.h{_dim(a, k)}",
        lambda a, k, r: {f"persistence.h{r.dim}_pairs": len(r)},
    ),
    ("persistence", "sublevel_persistence_reduction"): (
        lambda a, k: f"persistence.reduction_h{_dim(a, k)}",
        None,
    ),
    ("persistence", "bottleneck_distance"): (
        "persistence.bottleneck",
        lambda a, k, r: {"persistence.bottleneck_cells": len(a[0].finite_pairs) * len(a[1].finite_pairs)},
    ),
    ("temporal", "build_sample"): ("temporal.build_sample", None),
    ("temporal", "build_climatology"): ("temporal.build_climatology", None),
    ("fusion", "fuse"): ("fusion.fuse", None),
    ("fusion", "apply_residual"): ("fusion.apply_residual", None),
    ("fusion", "l_reg"): ("fusion.l_reg", None),
    ("losses", "topo_loss"): ("losses.topo_loss", None),
    ("losses", "ssim"): ("losses.ssim", None),
    ("metrics", "kde_overlap"): ("metrics.kde_overlap", _kde_counts),
    ("metrics", "make_eval_record"): ("metrics.make_eval_record", None),
    ("metrics", "seasonal_summary"): ("metrics.seasonal_summary", None),
    ("synthetic", "generate_climate"): ("synthetic.generate_climate", None),
}


class Tracer:
    """In-memory span recorder; safe to use from worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        # a worker thread's first span belongs to the span that was open on
        # the main thread when the work was handed out
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = next(self._ids)
        span = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                "start": time.perf_counter(), "end": None, "counts": {}}
        stack.append(sid)
        return span

    def end(self, span: dict, counts: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if counts:
            span["counts"].update(counts)
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def adopt(self, child_spans: list[dict], parent: int) -> None:
        """Merge spans written by another process under ``parent``."""
        remap = {}
        with self._lock:
            for s in child_spans:
                remap[s["id"]] = next(self._ids)
        for s in child_spans:
            s = dict(s, id=remap[s["id"]], run=self.run_id)
            s["parent"] = remap.get(s["parent"], parent)
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _wrap(fn, tracer: Tracer, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = tracer.begin(name(args, kwargs) if callable(name) else name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, result)
            return result
        finally:
            tracer.end(s, counts)

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer function wherever a topofield module refers to it."""
    importlib.import_module("topofield.cli")
    for (mod_name, fn_name), (name, counter) in LAYERS.items():
        module = importlib.import_module(f"topofield.{mod_name}")
        original = getattr(module, fn_name)
        wrapped = _wrap(original, tracer, name, counter)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("topofield"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def uninstall() -> None:
    """Restore every wrapped function (used between traced and untraced work)."""
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("topofield"):
            continue
        for attr, value in list(vars(mod).items()):
            original = getattr(value, "__wrapped_by_perfbench__", None)
            if original is not None:
                setattr(mod, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        parts = [(max(c["start"], lo), min(c["end"], hi)) for c in children[s["id"]]]
        out[s["id"]] = (hi - lo) - _covered([p for p in parts if p[1] > p[0]])
    return out


def aggregate(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per-name (self seconds, calls) and summed counts over all spans."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s["name"]] += selfs[s["id"]]
        calls[s["name"]] += 1
        for k, v in s["counts"].items():
            counts[k] += v
    return dict(self_s), dict(calls), dict(counts)
