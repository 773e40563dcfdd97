"""The union-find persistence kernels, the bottleneck candidate search and
the structural-channel kernel, at paper scale and on tie-heavy inputs,
against the reduction route, the per-field views and the independent
oracles."""

import datetime as dt
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from topofield import (
    CriticalKind,
    CriticalPoint,
    FieldStack,
    PersistenceDiagram,
    bottleneck_distance,
    build_structural_channels,
    build_structural_stack,
    classify_critical_points,
    extract_saddle_contours,
    sublevel_persistence,
    sublevel_persistence_reduction,
)
from topofield.errors import OutOfRange
from topofield.structural import _CHUNK_CELLS, T_MAXIMUM, T_MINIMUM, T_SADDLE
from topofield.synthetic import _smooth_field

from oracles import bruteforce_bottleneck, exhaustive_bottleneck, naive_sublevel_pairs, straddle_mask
from test_structural import ring_sign_changes


def rough_field() -> np.ndarray:
    """A 101x237 field with thousands of H0 and H1 pairs, scaled to [0, 1]."""
    noise = np.random.default_rng(0).standard_normal((101, 237))
    f = _smooth_field((1, 2, 3), (101, 237)) + 0.3 * noise
    return (f - f.min()) / (f.max() - f.min())


def test_routes_agree_at_paper_scale():
    f = rough_field()
    for dim in (0, 1):
        union_find = sublevel_persistence(f, dim)
        assert len(union_find) > 2000
        assert union_find.pairs == sublevel_persistence_reduction(f, dim).pairs


def test_tie_heavy_grids_agree_with_reduction_and_oracle():
    rng = np.random.default_rng(300)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2)]
    shapes += [tuple(int(n) for n in rng.integers(1, 7, size=2)) for _ in range(200)]
    for shape in shapes:
        grid = rng.integers(0, 3, size=shape).astype(float)
        for dim in (0, 1):
            want = naive_sublevel_pairs(grid, dim)
            assert list(sublevel_persistence(grid, dim).pairs) == want, (grid, dim)
            assert list(sublevel_persistence_reduction(grid, dim).pairs) == want, (grid, dim)


def test_constant_strips_have_one_component_and_no_loops():
    for shape in ((1, 9), (9, 1)):
        grid = np.zeros(shape)
        assert sublevel_persistence(grid, 0).pairs == ((0.0, float("inf")),)
        assert sublevel_persistence(grid, 1).pairs == ()


def integer_diagram(rng, max_points: int) -> list[tuple[float, float]]:
    """Integer points, some on the diagonal: many costs tie exactly."""
    n = int(rng.integers(0, max_points + 1))
    births = rng.integers(0, 4, size=n)
    lives = rng.integers(0, 4, size=n)
    return [(float(b), float(b + p)) for b, p in zip(births, lives)]


def test_bottleneck_with_tied_costs_matches_oracles():
    rng = np.random.default_rng(301)
    for _ in range(200):
        a = integer_diagram(rng, 6)
        b = integer_diagram(rng, 6)
        got = bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))
        assert type(got) is float
        assert got == exhaustive_bottleneck(a, b), (a, b)
    for _ in range(100):
        a = integer_diagram(rng, 4)
        b = integer_diagram(rng, 4)
        got = bottleneck_distance(PersistenceDiagram(0, tuple(a)), PersistenceDiagram(0, tuple(b)))
        assert got == bruteforce_bottleneck(a, b), (a, b)


# ---------------------------------------------------------------------------
# Structural channels


def small_rough_field(shape=(24, 32)) -> np.ndarray:
    """A rough field with a few hundred saddles, small enough for the oracles."""
    noise = np.random.default_rng(0).standard_normal(shape)
    f = _smooth_field((1, 2, 3), shape) + 0.3 * noise
    return (f - f.min()) / (f.max() - f.min())


def date_stack(fields) -> FieldStack:
    dates = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=k) for k in range(len(fields)))
    return FieldStack(dates, np.stack(fields)[:, None])


def test_contours_of_every_saddle_match_straddle_oracle():
    f = small_rough_field()
    saddles = [p for p in classify_critical_points(f) if p.kind is CriticalKind.SADDLE]
    assert len(saddles) > 200
    expected = np.zeros(f.shape, dtype=bool)
    for s in saddles:
        expected |= straddle_mask(f, (s.row, s.col))
    assert np.array_equal(extract_saddle_contours(f, saddles).values.astype(bool), expected)


def test_contours_of_boundary_and_duplicate_saddles_match_oracle():
    rng = np.random.default_rng(41)
    for _ in range(100):
        h, w = (int(n) for n in rng.integers(2, 8, size=2))
        grid = rng.integers(0, 3, size=(h, w)).astype(float)
        cells = [(int(rng.integers(0, h)), int(rng.integers(0, w))) for _ in range(rng.integers(0, 5))]
        cells += [(0, 0), (h - 1, w - 1), (0, w - 1)] + cells[:2]  # corners, repeats
        saddles = [CriticalPoint(r, c, CriticalKind.SADDLE, grid[r, c]) for r, c in cells]
        expected = np.zeros((h, w), dtype=bool)
        for r, c in cells:
            expected |= straddle_mask(grid, (r, c))
        assert np.array_equal(extract_saddle_contours(grid, saddles).values.astype(bool), expected), grid


def test_stack_matches_per_field_channels_and_ring_recount_on_tie_heavy_grids():
    rng = np.random.default_rng(42)
    shapes = [(3, 3), (3, 11), (11, 3), (3, 4), (4, 3)]
    shapes += [tuple(int(n) for n in rng.integers(3, 10, size=2)) for _ in range(40)]
    codes = {T_MAXIMUM: CriticalKind.MAXIMUM, T_MINIMUM: CriticalKind.MINIMUM, T_SADDLE: CriticalKind.SADDLE}
    for shape in shapes:
        fields = [rng.integers(0, 3, size=shape) / 2.0 for _ in range(5)]
        got = build_structural_stack(date_stack(fields), threads=1).values
        for k, f in enumerate(fields):
            assert got[k].tobytes() == build_structural_channels(f).to_array().tobytes()
            t = got[k, 1]
            points = {(p.row, p.col): p.kind for p in classify_critical_points(f)}
            assert points == {(int(r), int(c)): codes[t[r, c]] for r, c in zip(*np.nonzero(t))}
            h, w = shape
            for r in range(1, h - 1):
                for c in range(1, w - 1):
                    patch = f[r - 1 : r + 2, c - 1 : c + 2]
                    changes = ring_sign_changes(patch)
                    above = [(patch[i, j], 3 * i + j) > (patch[1, 1], 4) for i in range(3) for j in range(3)]
                    del above[4]  # the centre
                    want = 0.0
                    if changes >= 4:
                        want = T_SADDLE
                    elif changes == 0:
                        want = T_MINIMUM if all(above) else T_MAXIMUM
                    assert t[r, c] == want, (f, r, c)


def test_multi_chunk_stack_is_thread_count_independent():
    rng = np.random.default_rng(43)
    shape = (24, 32)
    n = 5 * (_CHUNK_CELLS // (shape[0] * shape[1])) // 2  # two and a half chunks
    rough = small_rough_field(shape)
    fields = [rough if k % 7 == 0 else rng.integers(0, 4, size=shape) / 3.0 for k in range(n)]
    stack = date_stack(fields)
    one = build_structural_stack(stack, threads=1).values
    two = build_structural_stack(stack, threads=2).values
    assert one.tobytes() == two.tobytes()
    for k in (0, n // 2, n - 1):  # fields in each chunk match the one-field view
        assert one[k].tobytes() == build_structural_channels(fields[k]).to_array().tobytes()


def test_one_out_of_range_field_among_many_is_rejected():
    rng = np.random.default_rng(44)
    fields = [rng.uniform(0, 1, size=(6, 7)) for _ in range(300)]
    fields[211][3, 4] = 1.0 + 1e-6
    for threads in (1, 2):
        with pytest.raises(OutOfRange):
            build_structural_stack(date_stack(fields), threads=threads)


# ---------------------------------------------------------------------------
# The benchmark resolves its traced layers by name


def test_every_traced_layer_resolves():
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(bench)
    for module, function in spans.LAYERS:
        layer = getattr(importlib.import_module(f"topofield.{module}"), function, None)
        assert callable(layer), (module, function)
