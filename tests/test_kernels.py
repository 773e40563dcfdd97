"""The union-find persistence kernels, the bottleneck candidate search, the
structural-channel kernel and the verification kernel, at paper scale and on
tie-heavy inputs, against the reduction route, the per-field views and the
independent oracles."""

import datetime as dt
import importlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from topofield import (
    CriticalKind,
    CriticalPoint,
    FieldStack,
    NormStats,
    PersistenceDiagram,
    ScalarField,
    bottleneck_distance,
    build_structural_channels,
    build_structural_stack,
    classify_critical_points,
    denormalize,
    evaluate_stack,
    extract_saddle_contours,
    kde_overlap,
    make_eval_record,
    sublevel_persistence,
    sublevel_persistence_reduction,
    tail_overlap,
)
from topofield import persistence
from topofield.errors import DegenerateSample, FormatError, OutOfRange, ShapeMismatch, ZeroVariance
from topofield.metrics import _KDE_EXP_ZERO, _SSIM_KERNEL, _bandwidth, _kde, _kde_pair, _local_mean
from topofield.field import _CHUNK_CELLS
from topofield.structural import T_MAXIMUM, T_MINIMUM, T_SADDLE
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


def plain_elder_merges(n_nodes: int, ends_a: list[int], ends_b: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sweep without contraction: path-halving union-find over every edge."""
    parent = list(range(n_nodes))
    steps: list[int] = []
    dead: list[int] = []
    for k, (x, y) in enumerate(zip(ends_a, ends_b)):
        while parent[x] != x:  # path halving
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            if x > y:
                x, y = y, x
            parent[y] = x
            steps.append(k)
            dead.append(y)
    return np.array(steps, dtype=np.int64), np.array(dead, dtype=np.int64)


def test_contracted_sweep_matches_plain_union_find():
    rng = np.random.default_rng(304)
    contracted = 0
    for _ in range(3000):
        n = int(rng.integers(1, 12))
        # few edges leave nodes isolated; many give parallel edges
        m = int(rng.integers(0, 3 * n))
        a = rng.integers(0, n, size=m)
        b = np.where(rng.random(m) < 0.2, a, rng.integers(0, n, size=m))  # self-loops
        if m and rng.random() < 0.5:
            a, b = np.concatenate([a, a[: m // 2]]), np.concatenate([b, b[: m // 2]])  # repeated pairs
            shuffle = rng.permutation(a.size)  # an arbitrary sweep order
            a, b = a[shuffle], b[shuffle]
        want = plain_elder_merges(n, a.tolist(), b.tolist())
        got = persistence._elder_merges(n, a, b)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), (n, a, b)
        first = {}
        for x, y in zip(a.tolist(), b.tolist()):
            first.setdefault(x, y)
            first.setdefault(y, x)
        contracted += sum(other < node for node, other in first.items())
    assert contracted > 5000


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 9), (9, 2)])
def test_thin_and_constant_grids_agree_with_reduction(shape):
    rng = np.random.default_rng(305)
    for grid in (np.zeros(shape), rng.integers(0, 3, size=shape).astype(float), rng.standard_normal(shape)):
        for dim in (0, 1):
            assert sublevel_persistence(grid, dim).pairs == sublevel_persistence_reduction(grid, dim).pairs, (grid, dim)


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


def test_bottleneck_search_holds_one_distance_matrix():
    truth = small_rough_field((60, 120))
    noise = np.random.default_rng(1).standard_normal(truth.shape)
    pred = np.clip(truth + 0.02 * noise, 0.0, 1.0)
    a, b = sublevel_persistence(truth, 1), sublevel_persistence(pred, 1)
    matrix_bytes = 8 * len(a.finite_pairs) * len(b.finite_pairs)
    assert matrix_bytes > 2**20
    tracemalloc.start()
    try:
        bottleneck_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 distance matrix plus boolean masks and the candidate set
    assert peak < 3.5 * matrix_bytes, peak / matrix_bytes


def test_bottleneck_peak_stays_below_one_distance_matrix():
    truth = small_rough_field((60, 120))
    noise = np.random.default_rng(1).standard_normal(truth.shape)
    pred = np.clip(truth + 0.02 * noise, 0.0, 1.0)
    a, b = sublevel_persistence(truth, 1), sublevel_persistence(pred, 1)
    matrix_bytes = 8 * len(a.finite_pairs) * len(b.finite_pairs)
    tracemalloc.start()
    try:
        bottleneck_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # relevant edges, the candidate set and one search step's adjacency only
    assert peak < matrix_bytes, peak / matrix_bytes


def dense_bottleneck(a: list, b: list) -> float:
    """The unpruned search: the full n x m L-infinity matrix, every candidate
    cost up to the largest half-persistence, and binary search with scipy's
    maximum matching as each side's covering test."""
    pa = np.array([p for p in a if p[1] > p[0]], dtype=np.float64).reshape(-1, 2)
    pb = np.array([q for q in b if q[1] > q[0]], dtype=np.float64).reshape(-1, 2)
    if not len(pa) and not len(pb):
        return 0.0
    half_a, half_b = (pa[:, 1] - pa[:, 0]) / 2.0, (pb[:, 1] - pb[:, 0]) / 2.0
    dist = np.maximum(np.abs(np.subtract.outer(pa[:, 0], pb[:, 0])), np.abs(np.subtract.outer(pa[:, 1], pb[:, 1])))
    halves = np.concatenate([half_a, half_b])
    levels = np.unique(np.concatenate(([0.0], halves, dist[dist <= halves.max()])))

    def covers(within: np.ndarray) -> bool:
        if not within.any(axis=1).all():
            return False
        if within.shape[0] == 0:
            return True
        return bool((maximum_bipartite_matching(csr_matrix(within), perm_type="column") >= 0).all())

    def feasible(t: float) -> bool:
        within = dist <= t
        return covers(within[half_a > t]) and covers(within.T[half_b > t])

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


# Decimal-looking values reached by different roundings, so that many births
# sit exactly on a window end fl(b +- h) of another point.
TENTHS = sorted({k / 10 for k in range(11)} | {k * 0.1 for k in range(11)} | {0.1 + 0.2, 0.7 + 0.1, 0.3 - 0.1, 1.1 - 0.3})


def tenths_diagram(rng, n: int) -> list[tuple[float, float]]:
    ends = np.sort(rng.choice(TENTHS, size=(n, 2)), axis=1)
    return [(float(x), float(y)) for x, y in ends]


def test_bottleneck_window_ends_keep_relevant_edges():
    # a's window [b - h, b + h] ends exactly on b's birth, and the edge is relevant
    right = [(0.1, 0.1 + 0.2)], [(0.2, 0.3)]
    left = [(0.7 + 0.1, 1.0)], [(0.7, 0.9)]
    for a, b in (right, left):
        (xb, xd), (yb, _) = a[0], b[0]
        assert yb in (xb - (xd - xb) / 2.0, xb + (xd - xb) / 2.0)
        got = bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))
        assert got == dense_bottleneck(a, b) == exhaustive_bottleneck(a, b) < (xd - xb) / 2.0


def test_near_edges_match_the_dense_relevant_set(monkeypatch):
    rng = np.random.default_rng(302)
    on_window_end = 0
    for chunk in (3, 1 << 16):  # many blocks, a row spanning several, and one block
        monkeypatch.setattr(persistence, "_WINDOW_CHUNK", chunk)
        for _ in range(100):
            p = np.array(tenths_diagram(rng, int(rng.integers(0, 30)))).reshape(-1, 2)
            q = np.array(tenths_diagram(rng, int(rng.integers(0, 30)))).reshape(-1, 2)
            half = (p[:, 1] - p[:, 0]) / 2.0
            dist = np.maximum(np.abs(np.subtract.outer(p[:, 0], q[:, 0])), np.abs(np.subtract.outer(p[:, 1], q[:, 1])))
            want = {(i, j): dist[i, j] for i, j in zip(*np.nonzero(dist < half[:, None]))}
            rows, cols, d = persistence._near_edges(p, half, q, np.argsort(q[:, 0], kind="stable").astype(np.int32))
            assert np.all(np.diff(rows) >= 0)
            assert dict(zip(zip(rows.tolist(), cols.tolist()), d.tolist())) == want
            on_window_end += sum(q[j, 0] in (p[i, 0] - half[i], p[i, 0] + half[i]) for i, j in want)
    assert on_window_end > 50


def test_bottleneck_matches_dense_search_on_rounding_and_tie_heavy_diagrams():
    rng = np.random.default_rng(303)
    for _ in range(300):
        a = tenths_diagram(rng, int(rng.integers(0, 40)))
        b = tenths_diagram(rng, int(rng.integers(0, 40)))
        got = bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))
        assert got == dense_bottleneck(a, b), (a, b)
    for _ in range(300):
        a = integer_diagram(rng, 45)
        b = integer_diagram(rng, 45)
        got = bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))
        assert got == dense_bottleneck(a, b), (a, b)


def dense_lower_bound(a: list, b: list) -> float:
    """The largest payment min(half, nearest distance below the half), from the full matrix."""
    pa, pb = np.array(a, dtype=np.float64).reshape(-1, 2), np.array(b, dtype=np.float64).reshape(-1, 2)
    dist = np.maximum(np.abs(np.subtract.outer(pa[:, 0], pb[:, 0])), np.abs(np.subtract.outer(pa[:, 1], pb[:, 1])))
    lb = 0.0
    for pts, d in ((pa, dist), (pb, dist.T)):
        half = (pts[:, 1] - pts[:, 0]) / 2.0
        near = np.where(d < half[:, None], d, np.inf).min(axis=1, initial=np.inf)
        lb = max(lb, np.minimum(half, near).max(initial=0.0))
    return lb


def spy_rows(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Record the halves and the column side of every block handed to _near_edges."""
    calls = []
    near_edges = persistence._near_edges

    def spy(p, half_p, q, order):
        calls.append((half_p.copy(), q))
        return near_edges(p, half_p, q, order)

    monkeypatch.setattr(persistence, "_near_edges", spy)
    return calls


def pruned_distance(a: list, b: list) -> float:
    return bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))


def test_row_with_half_equal_to_the_lower_bound_is_pruned(monkeypatch):
    monkeypatch.setattr(persistence, "_ROW_BLOCK", 1)
    calls = spy_rows(monkeypatch)
    # (0, 4) and (0, 3) pay their distance 1 = lb; (5, 7) has half exactly 1
    a, b = [(0.0, 4.0), (5.0, 7.0)], [(0.0, 3.0)]
    assert dense_lower_bound(a, b) == 1.0
    assert pruned_distance(a, b) == dense_bottleneck(a, b) == exhaustive_bottleneck(a, b) == 1.0
    assert sorted(h for half, _ in calls for h in half.tolist()) == [1.5, 2.0]


def test_single_unpruned_row(monkeypatch):
    monkeypatch.setattr(persistence, "_ROW_BLOCK", 1)
    calls = spy_rows(monkeypatch)
    # (0, 4) has no relevant edge, so it pays its half 2, above every other half
    a, b = [(0.0, 4.0), (0.0, 1.0), (1.0, 2.0)], [(0.5, 1.5), (2.0, 2.5)]
    assert pruned_distance(a, b) == dense_bottleneck(a, b) == exhaustive_bottleneck(a, b) == 2.0
    assert [half.tolist() for half, _ in calls] == [[2.0]]


@pytest.mark.parametrize("block", [1, 2, 3, 128])
def test_pruned_search_matches_dense_and_exhaustive(monkeypatch, block):
    monkeypatch.setattr(persistence, "_ROW_BLOCK", block)
    calls = spy_rows(monkeypatch)
    rng = np.random.default_rng(306)
    misses = split_ties = one_sided = 0
    for k in range(300):
        a, b = integer_diagram(rng, 8), integer_diagram(rng, 8)
        if k % 10 == 0:
            b = []
        calls.clear()
        got = pruned_distance(a, b)
        want = dense_bottleneck(a, b)
        assert got == want, (a, b)
        if len(a) + len(b) <= 9:
            assert got == exhaustive_bottleneck(a, b), (a, b)
        misses += got > dense_lower_bound(a, b)
        one_sided += not b and any(y > x for x, y in a)
        # a block that ends between two equal halves of one side
        last = {}
        for half, q in calls:
            split_ties += last.get(id(q)) == half[0]
            last[id(q)] = half[-1]
    # measured: 22 misses of the lower bound, 49 one-sided pairs, 156/41/10 split ties
    assert misses >= 15 and one_sided >= 30
    assert split_ties >= (5 if block < 128 else 0)


def test_bottleneck_enumerates_rows_above_the_lower_bound_only(monkeypatch):
    truth = small_rough_field((60, 120))
    noise = np.random.default_rng(1).standard_normal(truth.shape)
    pred = np.clip(truth + 0.02 * noise, 0.0, 1.0)
    a, b = sublevel_persistence(truth, 1), sublevel_persistence(pred, 1)
    n_a, n_b = len(a.finite_pairs), len(b.finite_pairs)
    assert n_a != n_b
    calls = spy_rows(monkeypatch)
    bottleneck_distance(a, b)
    # a side's rows are handed with the other side as columns
    rows_a = sum(half.size for half, q in calls if len(q) == n_b)
    rows_b = sum(half.size for half, q in calls if len(q) == n_a)
    # measured: 247 of 721 and 151 of 729 rows
    assert rows_a < 0.4 * n_a and rows_b < 0.4 * n_b, (rows_a, n_a, rows_b, n_b)
    assert rows_a + rows_b < 0.3 * (n_a + n_b)


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


def test_structural_stack_holds_one_copy_of_its_output():
    fields = [small_rough_field((101, 237))] * 24
    stack = date_stack(fields)
    tracemalloc.start()
    try:
        out = build_structural_stack(stack, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.values.flags.writeable
    assert peak < 1.5 * out.values.nbytes, (peak, out.values.nbytes)


# ---------------------------------------------------------------------------
# Verification: the stack kernel against its one-date view


STATS = NormStats(250.0, 310.0)


def eval_stacks(rng, n, shape=(12, 13)):
    truth = rng.uniform(0.2, 0.8, size=(n, *shape))
    pred = np.clip(truth + rng.normal(0, 0.03, truth.shape), 0, 1)
    clim = np.clip(truth + rng.normal(0, 0.1, truth.shape), 0, 1)
    dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=3 * k) for k in range(n))
    return pred, truth, clim, dates


def per_date(pred, truth, clim, dates, overlap):
    return [make_eval_record(p, t, c, STATS, d, 45, with_overlap=overlap)
            for p, t, c, d in zip(pred, truth, clim, dates)]


def field_by_field(p, t, c):
    """(rmse, psnr, ssim, acc) of one date by the per-field arithmetic the stack kernel replaced."""
    from scipy import ndimage

    pk, tk, ck = (x * STATS.span + STATS.p1 for x in (p, t, c))
    mse = float(((p - t) ** 2).mean())
    psnr = math.inf if mse == 0.0 else float(10.0 * np.log10(1.0 / mse))
    pa, ta = (pk - ck).ravel(), (tk - ck).ravel()
    pa, ta = pa - pa.mean(), ta - ta.mean()
    acc = float(np.clip((pa * ta).sum() / np.sqrt((pa**2).sum() * (ta**2).sum()), -1.0, 1.0))
    g = np.exp(-((np.arange(11.0) - 5) ** 2) / (2.0 * 1.5**2))
    window = np.outer(g / g.sum(), g / g.sum())
    mu_p, mu_t = (ndimage.correlate(x, window, mode="reflect") for x in (p, t))
    var_p = ndimage.correlate(p * p, window, mode="reflect") - mu_p * mu_p
    var_t = ndimage.correlate(t * t, window, mode="reflect") - mu_t * mu_t
    cov = ndimage.correlate(p * t, window, mode="reflect") - mu_p * mu_t
    num = (2.0 * mu_p * mu_t + 0.01**2) * (2.0 * cov + 0.03**2)
    den = (mu_p * mu_p + mu_t * mu_t + 0.01**2) * (var_p + var_t + 0.03**2)
    return float(np.sqrt(((pk - tk) ** 2).mean())), psnr, float((num / den).mean()), acc


def column_major_local_mean(x):
    """``_local_mean`` with its taps summed column by column: equal in exact
    arithmetic, but not in floating point."""
    h, w = x.shape[1:]
    padded = np.pad(x, ((0, 0), (5, 5), (5, 5)), mode="symmetric")
    acc = np.zeros(x.shape)
    for j in range(11):
        for i in range(11):
            acc += padded[:, i:i + h, j:j + w] * _SSIM_KERNEL[i, j]
    return acc


@pytest.mark.parametrize("shape", [(1, 11, 11), (3, 12, 40), (31, 24, 32), (2, 101, 237)])
def test_local_mean_is_byte_equal_to_ndimage_correlate(shape):
    from scipy import ndimage

    rng = np.random.default_rng(sum(shape))
    a, b = rng.uniform(0.0, 1.0, size=(2, *shape))
    reordered_differs = False
    for x in (a, a * a, a * b):
        want = ndimage.correlate(x, _SSIM_KERNEL[None], mode="reflect")
        assert _local_mean(x).tobytes() == want.tobytes()
        reordered_differs |= column_major_local_mean(x).tobytes() != want.tobytes()
    # the comparison is exact enough to tell the tap order apart
    assert reordered_differs


@pytest.mark.parametrize("threads", [1, 2])
def test_stack_records_match_one_date_view_across_chunks(threads):
    rng = np.random.default_rng(50)
    pred, truth, clim, dates = eval_stacks(rng, 5 * (_CHUNK_CELLS // (12 * 13)) // 2)
    pred[7] = truth[7]  # an identical prediction
    records = evaluate_stack(pred, truth, clim, STATS, dates, 45, threads=threads)
    assert records == per_date(pred, truth, clim, dates, False)
    assert math.isinf(records[7].psnr) and records[7].overlap is None
    assert len({r.season for r in records}) == 4
    for k in range(0, len(dates), 97):
        r = records[k]
        assert (r.rmse, r.psnr, r.ssim, r.acc) == field_by_field(pred[k], truth[k], clim[k])


@pytest.mark.parametrize("threads", [1, 2])
def test_clim_index_picks_each_dates_climatology(threads):
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(57), 40)
    one_map = evaluate_stack(pred, truth, clim[3:4], STATS, dates, 45, threads=threads,
                             clim_index=np.zeros(40, dtype=int))
    assert one_map == per_date(pred, truth, [clim[3]] * 40, dates, False)
    order = np.random.default_rng(58).permutation(40)
    shuffled = evaluate_stack(pred, truth, clim[order], STATS, dates, 45, threads=threads,
                              clim_index=np.argsort(order))
    assert shuffled == per_date(pred, truth, clim, dates, False)


def test_mismatched_stacks_are_rejected():
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(59), 4)
    with pytest.raises(ShapeMismatch):
        evaluate_stack(pred, truth, clim, STATS, dates[:3], 45)
    with pytest.raises(ShapeMismatch):
        evaluate_stack(pred, truth[:3], clim, STATS, dates, 45)
    with pytest.raises(ShapeMismatch):
        evaluate_stack(pred, truth, clim[:1], STATS, dates, 45)
    for index in ([0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2]):
        with pytest.raises(ShapeMismatch):
            evaluate_stack(pred, truth, clim, STATS, dates, 45, clim_index=index)
    with pytest.raises(FormatError):
        evaluate_stack(pred[0], truth[0], clim[0], STATS, dates[:1], 45)
    nan_pred = pred.copy()
    nan_pred[2, 3, 3] = np.nan
    with pytest.raises(OutOfRange):
        evaluate_stack(nan_pred, truth, clim, STATS, dates, 45)


def test_evaluate_memory_does_not_grow_with_the_stack():
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(60), 400, shape=(64, 64))
    tracemalloc.start()
    try:
        records = evaluate_stack(pred, truth, clim[:1], STATS, dates, 45, clim_index=np.zeros(400, dtype=int))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 400
    # one input stack is 13 MB; whole-stack kelvin copies would need several of them
    assert peak < 0.8 * pred.nbytes, (peak, pred.nbytes)


@pytest.mark.parametrize("threads", [1, 2])
def test_stack_overlaps_match_one_date_view(threads):
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(51), 9, shape=(16, 21))
    records = evaluate_stack(pred, truth, clim, STATS, dates, 45, with_overlap=True, threads=threads)
    assert records == per_date(pred, truth, clim, dates, True)
    assert all(0.0 < r.overlap <= 1.0 for r in records)


def test_out_of_range_reports_the_earliest_field():
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(52), 6)
    clim[1, 0, 0] = -0.5
    truth[2, 2, 3] = 1.0 + 1e-6
    pred[2, 5, 5] = 1.25
    clim[2, 1, 1] = 1.5
    for want in (clim[1], pred[2], truth[2], clim[2]):  # by date, then pred, truth, clim
        with pytest.raises(OutOfRange) as field_err:
            denormalize(ScalarField(want), STATS)
        with pytest.raises(OutOfRange) as stack_err:
            evaluate_stack(pred, truth, clim, STATS, dates, 45)
        assert str(stack_err.value) == str(field_err.value)
        want[...] = 0.5


def test_constant_anomaly_and_degenerate_sample():
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(53), 6)
    const_anomaly = truth.copy()
    const_anomaly[3] = clim[3]
    with pytest.raises(ZeroVariance):
        evaluate_stack(pred, const_anomaly, clim, STATS, dates, 45)
    for flat_date, error in ((2, DegenerateSample), (3, DegenerateSample), (4, ZeroVariance)):
        flat = pred.copy()
        flat[flat_date] = 0.5
        evaluate_stack(flat, truth, clim, STATS, dates, 45)  # only the KDE needs spread
        # the earliest failing date wins; on one date the KDE fails first
        with pytest.raises(error):
            evaluate_stack(flat, const_anomaly, clim, STATS, dates, 45, with_overlap=True)
    with pytest.raises(ZeroVariance):
        evaluate_stack(flat, const_anomaly, clim, STATS, dates, 45)
    flat[5] = 1.5
    with pytest.raises(OutOfRange):  # a field out of range beats both
        evaluate_stack(flat, const_anomaly, clim, STATS, dates, 45, with_overlap=True)


def test_empty_stack_gives_no_records():
    pred, truth, clim, _ = eval_stacks(np.random.default_rng(54), 0)
    assert evaluate_stack(pred, truth, clim, STATS, (), 45, with_overlap=True, threads=2) == []


# ---------------------------------------------------------------------------
# Exact KDE in bounded memory


def test_blocked_kde_equals_one_shot_sum():
    rng = np.random.default_rng(55)
    samples = rng.normal(size=1500)  # 48 blocks of grid points
    grid = np.linspace(-5.0, 5.0, 2048)
    z = (grid[:, None] - samples[None, :]) / 0.3
    one_shot = np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * 0.3 * math.sqrt(2.0 * math.pi))
    assert _kde(samples, 0.3, grid).tobytes() == one_shot.tobytes()


def test_kde_stays_under_its_memory_budget():
    rng = np.random.default_rng(56)
    p, q = rng.normal(size=8000), rng.normal(0.5, 1.2, size=8000)
    tracemalloc.start()
    try:
        overlap = kde_overlap(p, q)
        tail = tail_overlap(p, q, "above_p95")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < overlap < 1.0 and 0.0 < tail
    # the one-shot evaluation needs 2048 x 8000 x 8 B = 131 MB per temporary
    assert peak < 8e6, peak


def one_shot_terms(samples, h, grid):
    """Every kernel term ``exp((-0.5 * z) * z)`` as one (grid points x samples) matrix."""
    z = (grid[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z * z)


def one_shot_kde(samples, h, grid):
    return one_shot_terms(samples, h, grid).sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi))


def far_kinds(terms) -> set[str]:
    """Which kinds of slow cell the terms hold: terms that underflow to 0.0,
    subnormal terms, and rows whose whole sum is subnormal (where every
    subnormal term changes the density)."""
    tiny = np.finfo(np.float64).tiny
    sums = terms.sum(axis=1)
    kinds = {"zero": (terms == 0.0).any(), "subnormal": ((terms > 0.0) & (terms < tiny)).any(),
             "subnormal_sum": ((sums > 0.0) & (sums < tiny)).any()}
    return {kind for kind, present in kinds.items() if present}


def two_clusters(rng, n, h):
    """Two clusters 60 bandwidths apart bridged by spread-out samples, so that
    every distance up to 80 bandwidths occurs between a sample and the grid."""
    k = n // 10
    parts = (rng.normal(0.0, 2.0 * h, (n - k) // 2), rng.normal(60.0 * h, 2.0 * h, n - k - (n - k) // 2),
             rng.uniform(-10.0 * h, 70.0 * h, k))
    return rng.permutation(np.concatenate(parts))


@pytest.mark.parametrize("n, points", [(7, 2048), (1000, 2048), (70_000, 40)])
def test_kde_with_slow_cells_equals_one_shot_sum(n, points):
    # blocks of 2048, 65 and 1 grid points; the slow cells are set to 0 for the
    # block's exp and evaluated apart, which must not change a single bit
    rng = np.random.default_rng(57)
    h = 0.05
    samples = two_clusters(rng, n, h)
    # two points 38 bandwidths beyond the samples, where every term is subnormal
    edges = [samples.min() - 38.0 * h, samples.max() + 38.2 * h]
    grid = np.sort(np.concatenate((np.linspace(-60.0 * h, 130.0 * h, points - 2), edges)))
    terms = one_shot_terms(samples, h, grid)
    assert far_kinds(terms) == {"zero", "subnormal", "subnormal_sum"}
    want = terms.sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi))
    assert _kde(samples, h, grid).tobytes() == want.tobytes()


def test_block_exp_stays_on_its_fast_path(monkeypatch):
    from topofield import metrics

    class ExpSpy:
        """numpy, with each ``exp`` call's smallest argument recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, **kwargs):
            calls.append(("block" if "out" in kwargs else "slow", float(x.min(initial=0.0))))
            return np.exp(x, **kwargs)

    calls = []
    monkeypatch.setattr(metrics, "np", ExpSpy())
    rng = np.random.default_rng(61)
    for n, points in ((1000, 2048), (70_000, 40)):  # 65 grid points a block, and one
        samples = two_clusters(rng, n, 0.05)
        _kde(samples, 0.05, np.linspace(-3.0, 6.5, points))
    block = [m for kind, m in calls if kind == "block"]
    slow = [m for kind, m in calls if kind == "slow"]
    assert len(block) == 32 + 40 and min(block) >= -707.7
    assert slow and min(slow) >= _KDE_EXP_ZERO and min(slow) < -707.7


def test_kde_with_slow_cells_equals_one_shot_sum_on_random_mixtures():
    rng = np.random.default_rng(58)
    for _ in range(40):
        n = int(rng.integers(2, 400))
        h = float(rng.uniform(0.01, 1.0))
        samples = two_clusters(rng, n, h) + rng.uniform(-5.0, 5.0)
        grid = np.linspace(samples.min() - 45.0 * h, samples.max() + 45.0 * h, int(rng.integers(1, 600)))
        assert _kde(samples, h, grid).tobytes() == one_shot_kde(samples, h, grid).tobytes()


def outlier_heavy(rng, n, centre):
    """A tight cluster holding 85 % of the samples, the rest spread 100 sds to
    one side: the bandwidth follows the cluster, so the outliers' terms underflow."""
    k = 15 * n // 100
    return rng.permutation(np.concatenate((rng.normal(centre, 1.0, n - k), rng.uniform(centre, centre + 100.0, k))))


@pytest.mark.parametrize("side", ["below_p5", "above_p95"])
def test_tail_overlap_with_slow_cells_equals_one_shot(side):
    # the clusters lie about 50 bandwidths apart, so each tail grid reaches
    # points where one density is a sum of subnormal terms
    rng = np.random.default_rng(59)
    p, q = outlier_heavy(rng, 1200, 0.0), outlier_heavy(rng, 1100, 12.0)
    grid, dens_p, dens_q = _kde_pair(p, q, side)
    want, kinds = [], set()
    for samples, dens in ((p, dens_p), (q, dens_q)):
        h = _bandwidth(samples)
        terms = one_shot_terms(samples, h, grid)
        kinds |= far_kinds(terms)
        want.append(terms.sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi)))
        assert dens.tobytes() == want[-1].tobytes()
    assert kinds == {"zero", "subnormal", "subnormal_sum"}
    tail = float(np.trapezoid(np.minimum(*want), grid) / np.trapezoid(want[1], grid))
    assert tail_overlap(p, q, side) == tail


def test_evaluate_overlaps_with_slow_cells_do_not_depend_on_threads():
    rng = np.random.default_rng(60)
    n, shape = 6, (16, 18)
    # a tight band of cells near 0.3 with 15 % spread over [0.3, 0.7]: most
    # terms of the spread cells underflow
    truth = np.stack([outlier_heavy(rng, shape[0] * shape[1], 0.0).reshape(shape) for _ in range(n)])
    truth = 0.3 + 0.004 * truth
    pred = np.clip(truth + rng.normal(0.0, 0.002, truth.shape), 0.0, 1.0)
    clim = np.full_like(truth, 0.5)
    dates = tuple(dt.date(2003, 6, 1) + dt.timedelta(days=k) for k in range(n))
    t0 = denormalize(ScalarField(truth[0]), STATS).values.ravel()
    grid = _kde_pair(t0, t0)[0]
    assert {"zero", "subnormal"} <= far_kinds(one_shot_terms(t0, _bandwidth(t0), grid))
    one = evaluate_stack(pred, truth, clim, STATS, dates, 45, with_overlap=True, threads=1)
    two = evaluate_stack(pred, truth, clim, STATS, dates, 45, with_overlap=True, threads=2)
    assert one == two
    assert one == per_date(pred, truth, clim, dates, True)


def test_exp_is_exactly_zero_below_the_zero_constant():
    # premise of setting the slow cells below _KDE_EXP_ZERO to 0.0 without a call
    sweep = np.linspace(_KDE_EXP_ZERO, 2.0 * _KDE_EXP_ZERO, 1_000_001)
    assert sweep.max() == _KDE_EXP_ZERO
    assert not np.exp(sweep).any()
    assert np.exp(np.nextafter(-745.13, 0.0)) > 0.0  # the smallest subnormal survives above -745.13


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def command_argvs(tmp_path) -> list[list[str]]:
    """One run of every command but ``synth`` on small inputs made here."""
    from topofield.cli import run
    from topofield.gfs import write_stack

    p = {name: str(tmp_path / name) for name in (
        "spec.json", "climate.gfs", "stats.json", "norm.gfs", "channels.gfs", "a.csv", "b.csv",
        "pred.gfs", "truth.gfs", "clim.gfs", "lam.gfs", "err.gfs", "fused.gfs", "records.csv", "summary.csv")}
    Path(p["spec.json"]).write_text(json.dumps({
        "n_years": 4, "height": 12, "width": 14, "annual_amp": 1.0, "interannual_amp": 0.3,
        "weather_amp": 0.4, "ar1_coeff": 0.7, "seed": 11}))
    assert run(["synth", "--spec", p["spec.json"], "--output", p["climate.gfs"]]) == 0
    pred, truth, clim, dates = eval_stacks(np.random.default_rng(61), 4, shape=(12, 14))
    lam = np.random.default_rng(62).uniform(0.0, 1.0, size=pred.shape)
    for name, vals in (("pred.gfs", pred), ("truth.gfs", truth), ("clim.gfs", clim), ("lam.gfs", lam),
                       ("err.gfs", 6.0 * lam)):
        write_stack(FieldStack(dates, vals[:, None]), p[name])
    day = dates[1].isoformat()
    return [
        ["stats", "--input", p["climate.gfs"], "--train-years", "2010-2012", "--output", p["stats.json"]],
        ["normalize", "--input", p["climate.gfs"], "--stats", p["stats.json"], "--output", p["norm.gfs"]],
        ["channels", "--input", p["climate.gfs"], "--stats", p["stats.json"], "--output", p["channels.gfs"]],
        ["sample", "--input", p["channels.gfs"], "--date", "2013-06-01", "--tau", "45"],
        ["persistence", "--input", p["climate.gfs"], "--date", "2013-06-01", "--output", p["a.csv"]],
        ["persistence", "--input", p["climate.gfs"], "--date", "2013-06-02", "--output", p["b.csv"]],
        ["bottleneck", p["a.csv"], p["b.csv"], "--dim", "1"],
        ["fuse", "--inter", p["pred.gfs"], "--intra", p["truth.gfs"], "--lambda", p["lam.gfs"],
         "--output", p["fused.gfs"]],
        ["regularize", "--lambda", p["lam.gfs"], "--eta1", "1", "--eta2", "1", "--eta3", "1"],
        ["losses", "--pred", p["pred.gfs"], "--truth", p["truth.gfs"], "--date", day, "--lambda", p["lam.gfs"],
         "--eta1", "1", "--delta", "1"],
        ["evaluate", "--pred", p["pred.gfs"], "--truth", p["truth.gfs"], "--clim", p["clim.gfs"],
         "--stats", p["stats.json"], "--overlap", "--output", p["records.csv"], "--summary", p["summary.csv"]],
        ["stratify", "--lambda", p["lam.gfs"], "--rmse", p["err.gfs"], "--date", day],
    ]


def test_import_leaves_scipy_ndimage_unloaded(tmp_path):
    """Importing topofield, and running any command but ``synth``, loads no scipy module."""
    argvs = command_argvs(tmp_path)
    code = f"""import contextlib, io, json, sys
import topofield
from topofield.cli import run
loaded = [["import", 0, {SCIPY_LOADED}]]
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()):
        status = run(argv)
    loaded.append([argv[0], status, {SCIPY_LOADED}])
print(json.dumps(loaded))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], input=json.dumps(argvs), capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "PATH": ""})
    loaded = json.loads(out.stdout)
    assert [name for name, _, _ in loaded] == ["import"] + [argv[0] for argv in argvs]
    assert [(name, status, scipy) for name, status, scipy in loaded if status or scipy] == []


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
