"""The union-find persistence kernels, the bottleneck candidate search, the
structural-channel kernel and the verification kernel, at paper scale and on
tie-heavy inputs, against the reduction route, the per-field views and the
independent oracles."""

import ast
import datetime as dt
import importlib
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    filter_by_persistence,
    kde_overlap,
    make_eval_record,
    sublevel_persistence,
    sublevel_persistence_reduction,
    tail_overlap,
    topo_loss,
)
from topofield import order, persistence
from topofield.errors import DegenerateSample, FormatError, OutOfRange, ShapeMismatch, ZeroVariance
from topofield.metrics import _SSIM_WEIGHTS, _bandwidth, _kde, _kde_pair, _local_mean
from topofield.field import _CHUNK_CELLS, as_values
from topofield.order import stable_argsort, vertex_ranks
from topofield.structural import T_MAXIMUM, T_MINIMUM, T_SADDLE
from topofield.synthetic import _smooth_field

from oracles import bruteforce_bottleneck, exhaustive_bottleneck, naive_sublevel_pairs, straddle_mask
from test_structural import ring_sign_changes


def rough_field(seed: int = 0) -> np.ndarray:
    """A 101x237 field with thousands of H0 and H1 pairs, scaled to [0, 1]."""
    noise = np.random.default_rng(seed).standard_normal((101, 237))
    f = _smooth_field((1, 2, 3), (101, 237)) + 0.3 * noise
    return (f - f.min()) / (f.max() - f.min())


def signed_ties(f: np.ndarray, seed: int) -> np.ndarray:
    """f on a 0.01 grid, lowered by 0.2 and cut at zero, half of the zeros
    -0.0: hundreds of tied values, births among them."""
    g = np.maximum(np.round(f, 2) - 0.2, 0.0)
    zero = g == 0.0
    g[zero] = np.where(np.random.default_rng(seed).random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
    return g


def kernel_pairs(field, dim: int) -> list[tuple[float, float]]:
    """The union-find kernel's pairs as (birth, death) tuples, in the kernel's order."""
    kernel = (persistence._h0_union_find, persistence._h1_union_find)[dim]
    return [(b, d) for b, d in kernel(*persistence._ranked(as_values(field))).tolist()]


# topo_loss of rough_field(seed) against a prediction 0.02 noise away, plain
# and through signed_ties, as the tuple-sorted diagrams and the birth-window
# search computed it; the array route keeps every bit.
TOPO_LOSS_HEX = {
    (0, False): "0x1.2341322ed0150p-5", (0, True): "0x1.47ae147ae1480p-5",
    (1, False): "0x1.fe7c269e919e0p-6", (1, True): "0x1.eb851eb851eb8p-6",
    (2, False): "0x1.a996de105ff40p-6", (2, True): "0x1.47ae147ae1480p-6",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_diagrams_keep_the_tuple_order_and_the_distance(seed):
    truth = rough_field(seed)
    pred = np.clip(truth + 0.02 * np.random.default_rng(seed + 100).standard_normal(truth.shape), 0.0, 1.0)
    for ties in (False, True):
        a, b = (signed_ties(truth, seed), signed_ties(pred, seed)) if ties else (truth, pred)
        for f in (a, b):
            assert_kernels_match_references(f)
            for dim in (0, 1):
                # repr tells -0.0 from 0.0, so ties keep their order too
                assert repr(sublevel_persistence(f, dim).pairs) == repr(tuple(sorted(kernel_pairs(f, dim))))
        assert topo_loss(a, b).hex() == TOPO_LOSS_HEX[seed, ties]


def test_filter_keeps_the_tuple_rule_at_paper_scale():
    f = rough_field()
    f[f == 0.0] = -0.0  # the global minimum: the essential H0 class is born at -0.0
    for dim in (0, 1):
        pd = sublevel_persistence(f, dim)
        spans = [d - b for b, d in pd.finite_pairs]
        assert len(pd) > 2000 and (dim == 1 or repr(pd.pairs[0]) == "(-0.0, inf)")
        # thresholds equal to a span keep the pairs that reach it exactly
        for m in (0.0, float(np.median(spans)), max(spans), math.inf):
            want = tuple((b, d) for b, d in pd.pairs if math.isinf(d) or d - b >= m)
            got = filter_by_persistence(pd, m)
            assert repr(got.pairs) == repr(want) and got.dim == dim, (dim, m)


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


def reference_h0_union_find(values: np.ndarray) -> np.ndarray:
    """H0 by the elder rule over every vertex and edge, without basin contraction."""
    rank, vals = persistence._ranked(values)
    lo, hi = persistence._edge_ends(rank)
    edge_rank = np.maximum(lo, hi)
    order = np.argsort(edge_rank, kind="stable")
    steps, dead = persistence._elder_merges(rank.size, lo[order], hi[order])
    death = edge_rank[order[steps]]
    keep = dead != death
    alive = np.ones(rank.size, dtype=bool)
    alive[dead] = False
    finite = np.stack([vals[dead[keep]], vals[death[keep]]], 1)
    essential = np.stack([vals[alive], np.full(np.count_nonzero(alive), np.inf)], 1)
    return np.concatenate([finite, essential])


def reference_h1_union_find(values: np.ndarray) -> np.ndarray:
    """H1 as H0 of the dual graph, the unit squares plus one outer face, with
    every edge swept from the top; pairs in square order."""
    rank, vals = persistence._ranked(values)
    h, w = rank.shape
    sq_rank = persistence._square_ranks(rank)
    sq_order = np.argsort(sq_rank, kind="stable")
    n_sq = sq_rank.size
    # node 0 is the outer face (the padding); squares follow, latest first
    node = np.zeros((h + 1, w + 1), dtype=np.int64)
    node[1:h, 1:w] = (n_sq - persistence._inverse(sq_order)).reshape(h - 1, w - 1)
    # faces above/below each horizontal edge, then left/right of each vertical one
    face_a = np.concatenate([node[:-1, 1:-1].ravel(), node[1:-1, :-1].ravel()])
    face_b = np.concatenate([node[1:, 1:-1].ravel(), node[1:-1, 1:].ravel()])
    lo, hi = persistence._edge_ends(rank)
    edge_rank = np.maximum(lo, hi)
    order = np.argsort(edge_rank, kind="stable")[::-1]
    steps, dead = persistence._elder_merges(n_sq + 1, face_a[order], face_b[order])
    by_square = np.argsort(-dead)
    birth = edge_rank[order[steps[by_square]]]
    death = sq_rank[sq_order[n_sq - dead[by_square]]]
    keep = birth != death
    return np.stack([vals[birth[keep]], vals[death[keep]]], 1)


def assert_kernels_match_references(grid) -> None:
    """The basin kernels' raw arrays are byte-equal to the full sweeps': same pairs, order and zero signs."""
    values = as_values(grid)
    for dim, (kernel, reference) in enumerate([(persistence._h0_union_find, reference_h0_union_find),
                                               (persistence._h1_union_find, reference_h1_union_find)]):
        got, want = kernel(*persistence._ranked(values)), reference(values)
        assert got.dtype == want.dtype and got.shape == want.shape, (grid, dim)
        assert got.tobytes() == want.tobytes(), (grid, dim)


def test_basin_kernels_are_byte_equal_to_the_full_sweeps():
    rng = np.random.default_rng(310)
    for k in range(500):
        shape = tuple(int(n) for n in rng.integers(1, 14, size=2))
        grid = (rng.integers(0, 3, size=shape).astype(float),  # three-level ties
                rng.choice([-0.0, 0.0, 1.0, 2.0], size=shape, p=[0.15, 0.15, 0.35, 0.35]),  # signed zeros
                rng.standard_normal(shape),
                np.full(shape, [-0.0, 0.0, 1.0][k // 4 % 3]))[k % 4]
        assert_kernels_match_references(grid)


def saddle_square() -> np.ndarray:
    """Two peaks, 9 and 10, whose basins first meet across the diagonal 8-7
    of the saddle square [[8, 1], [2, 7]]. Under 8-connectivity the loop
    around 9 closes at 7; without the diagonal it would close at 2."""
    return np.array([[0, 0, 0, 0, 0, 0],
                      [0, 9, 8, 1, 0, 0],
                      [0, 0, 2, 7, 10, 0],
                      [0, 0, 0, 0, 0, 0]], dtype=float)


def test_only_a_diagonal_joins_two_basins():
    for grid in (saddle_square(), saddle_square()[:, ::-1]):  # a main and an anti-diagonal
        assert sublevel_persistence(grid, 1).pairs == ((0.0, 10.0), (7.0, 9.0))
        assert sublevel_persistence_reduction(grid, 1).pairs == ((0.0, 10.0), (7.0, 9.0))
        assert kernel_pairs(grid, 1) == [(7.0, 9.0), (0.0, 10.0)]  # by ascending death
        assert_kernels_match_references(grid)
        assert_kernels_match_references(grid.T)


def test_only_the_outside_closes_a_loop():
    # the peak's ring is the grid's boundary: its basin meets no other, and
    # the boundary cell 8, joined to the outside, closes the loop
    grid = np.array([[0, 8, 0], [0, 9, 0], [0, 0, 0]], dtype=float)
    for g in (grid, grid.T, grid[::-1], np.pad(grid, ((0, 0), (0, 2)))):
        assert sublevel_persistence(g, 1).pairs == ((8.0, 9.0),)
        assert sublevel_persistence_reduction(g, 1).pairs == ((8.0, 9.0),)
        assert_kernels_match_references(g)


def test_union_find_sees_one_edge_per_basin_pair(monkeypatch):
    calls = []
    elder_merges = persistence._elder_merges

    def spy(n_nodes, ends_a, ends_b):
        calls.append((n_nodes, ends_a, ends_b))
        return elder_merges(n_nodes, ends_a, ends_b)

    monkeypatch.setattr(persistence, "_elder_merges", spy)
    f = rough_field()
    for dim in (0, 1):
        calls.clear()
        pd = sublevel_persistence(f, dim)
        (n_nodes, a, b), = calls
        # one node per basin (and the outside for H1), each basin root a birth or a death
        assert n_nodes == len(pd) + dim
        pairs = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        assert len(pairs) == a.size and np.all(a != b)
        assert a.size < 3 * n_nodes  # measured: 13,257 edges for 4,734 basins (H0), 7,220 for 2,505 (H1)


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


def spy_rounds(monkeypatch) -> list[int]:
    """Record, for every elder-rule round, how many edges it leaves."""
    left = []
    first_of_each_pair = persistence._first_of_each_pair

    def spy(lo, hi, n_nodes):
        kept = first_of_each_pair(lo, hi, n_nodes)
        left.append(kept.size)
        return kept

    monkeypatch.setattr(persistence, "_first_of_each_pair", spy)
    return left


def multi_component_graph(rng) -> tuple[int, np.ndarray, np.ndarray]:
    """Random edges inside a few components whose node ids interleave, with
    isolated nodes, self-loops, repeated pairs and a shuffled sweep order."""
    n = int(rng.integers(2, 400))
    component = rng.integers(0, int(rng.integers(1, 6)), size=n)
    component[rng.random(n) < 0.1] = -1  # isolated nodes
    members = [np.flatnonzero(component == c) for c in np.unique(component[component >= 0])]
    if not members:
        return n, np.empty(0, np.int64), np.empty(0, np.int64)
    m = int(rng.integers(0, 4 * n))
    pick = rng.integers(0, len(members), size=m)
    a = np.array([rng.choice(members[c]) for c in pick], dtype=np.int64)
    b = np.array([rng.choice(members[c]) for c in pick], dtype=np.int64)
    b = np.where(rng.random(m) < 0.1, a, b)  # self-loops
    repeat = rng.random(m) < 0.3
    a, b = np.concatenate([a, b[repeat]]), np.concatenate([b, a[repeat]])  # repeated pairs, either way round
    shuffle = rng.permutation(a.size)
    return n, a[shuffle], b[shuffle]


def test_elder_rounds_match_plain_sweep_on_multi_component_graphs(monkeypatch):
    left = spy_rounds(monkeypatch)
    rng = np.random.default_rng(307)
    many_rounds = fallback = 0
    for _ in range(300):
        n, a, b = multi_component_graph(rng)
        left.clear()
        got = persistence._elder_merges(n, a, b)
        want = plain_elder_merges(n, a.tolist(), b.tolist())
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), (n, a, b)
        many_rounds += len(left) >= 4
        fallback += bool(left) and left[-1] > 0  # the last round left edges to the Python loop
    # measured: 257 graphs took 4 or more rounds, and 16 ended in the Python loop
    assert many_rounds >= 150 and fallback >= 8


def staircase(n_basins: int) -> np.ndarray:
    """One row of basins whose minima fall and whose separating peaks rise
    to the right. Each basin's lowest pass leads to its younger left
    neighbour, so a round of the elder rule over labels kills only the
    leftmost basin left."""
    row = np.empty(2 * n_basins - 1)
    row[0::2] = -np.arange(n_basins)
    row[1::2] = n_basins + np.arange(n_basins - 1)
    return row[None, :]


def test_staircase_of_basins_falls_back_to_the_python_loop(monkeypatch):
    left = spy_rounds(monkeypatch)
    grid = staircase(2000)
    got = sublevel_persistence(grid, 0)
    # measured: the basin contraction leaves 1,999 edges, one round kills
    # one basin, and the loop takes the 1,998 left
    assert len(left) <= 3 and left[-1] >= 1990, left
    assert len(got) == 2000
    assert got.pairs == sublevel_persistence_reduction(grid, 0).pairs
    rank = persistence._ranked(grid)[0]
    lo, hi = persistence._edge_ends(rank)
    order = np.argsort(np.maximum(lo, hi), kind="stable")
    want = plain_elder_merges(rank.size, lo[order].tolist(), hi[order].tolist())
    for x, y in zip(persistence._elder_merges(rank.size, lo[order], hi[order]), want):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (1, 40), (40, 1), (2, 9), (9, 2)])
def test_thin_and_constant_grids_agree_with_reduction(shape):
    rng = np.random.default_rng(305)
    grids = (np.zeros(shape), rng.integers(0, 3, size=shape).astype(float), rng.standard_normal(shape),
             rng.choice([-0.0, 0.0, 1.0], size=shape))
    for grid in grids:
        assert_kernels_match_references(grid)
        for dim in (0, 1):
            pairs = sublevel_persistence(grid, dim).pairs
            assert pairs == sublevel_persistence_reduction(grid, dim).pairs, (grid, dim)
            assert repr(pairs) == repr(tuple(sorted(kernel_pairs(grid, dim)))), (grid, dim)
    for a in grids:
        for b in grids:
            assert topo_loss(a, b) == dense_bottleneck(kernel_pairs(a, 1), kernel_pairs(b, 1)), (a, b)


@pytest.mark.parametrize("grid", [np.full((5, 7), 0.25), np.array([[3.0]]), np.arange(9.0)[None], np.arange(9.0)[::-1, None]],
                         ids=["constant", "1x1", "1xn-ramp", "nx1-ramp"])
def test_grids_with_no_cross_basin_edge(monkeypatch, grid):
    # every vertex drains into one basin in both sweeps (H1's through the
    # outside), so the basin dedupe and the union-find see no edge at all
    calls = []
    elder_merges = persistence._elder_merges

    def spy(n_nodes, ends_a, ends_b):
        calls.append((n_nodes, ends_a.size))
        return elder_merges(n_nodes, ends_a, ends_b)

    monkeypatch.setattr(persistence, "_elder_merges", spy)
    assert sublevel_persistence(grid, 0).pairs == ((float(grid.min()), math.inf),)
    assert sublevel_persistence(grid, 1).pairs == ()
    assert calls == [(1, 0), (1, 0)]
    assert sublevel_persistence_reduction(grid, 0).pairs == ((float(grid.min()), math.inf),)
    assert sublevel_persistence_reduction(grid, 1).pairs == ()


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
    on_window_end = on_death_end = 0
    # one point a strip, a few, and all in one strip
    for strip in (1, 4, 3, 64):
        monkeypatch.setattr(persistence, "_STRIP", strip)
        for _ in range(100):
            p = np.array(tenths_diagram(rng, int(rng.integers(0, 30)))).reshape(-1, 2)
            q = np.array(tenths_diagram(rng, int(rng.integers(0, 30)))).reshape(-1, 2)
            half = (p[:, 1] - p[:, 0]) / 2.0
            dist = np.maximum(np.abs(np.subtract.outer(p[:, 0], q[:, 0])), np.abs(np.subtract.outer(p[:, 1], q[:, 1])))
            want = {(i, j): dist[i, j] for i, j in zip(*np.nonzero(dist < half[:, None]))}
            rows, cols, d = persistence._near_edges(p, half, persistence._Strips(q))
            assert np.all(np.diff(rows) >= 0)
            assert dict(zip(zip(rows.tolist(), cols.tolist()), d.tolist())) == want
            on_window_end += sum(q[j, 0] in (p[i, 0] - half[i], p[i, 0] + half[i]) for i, j in want)
            on_death_end += sum(q[j, 1] in (p[i, 1] - half[i], p[i, 1] + half[i]) for i, j in want)
    # measured: 328 edges on a birth window end, 408 on a death window end
    assert on_window_end > 50 and on_death_end > 50


def test_one_pass_over_a_wide_block_matches_the_dense_relevant_set():
    # 128 long-lived rows whose windows take in most of 1,000 points
    rng = np.random.default_rng(309)
    births = rng.uniform(0, 1, 128)
    p = np.column_stack((births, births + rng.uniform(3, 4, 128)))
    births = rng.uniform(0, 1, 1000)
    q = np.column_stack((births, births + rng.uniform(3, 4, 1000)))
    half = (p[:, 1] - p[:, 0]) / 2.0
    dist = np.maximum(np.abs(np.subtract.outer(p[:, 0], q[:, 0])), np.abs(np.subtract.outer(p[:, 1], q[:, 1])))
    want_rows, want_cols = np.nonzero(dist < half[:, None])
    assert want_rows.size > 1 << 16
    rows, cols, d = persistence._near_edges(p, half, persistence._Strips(q))
    order = np.lexsort((cols, rows))  # rows come in order, columns in key order
    assert np.array_equal(rows, want_rows) and np.array_equal(cols[order], want_cols)
    assert np.array_equal(d[order], dist[want_rows, want_cols])


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


def spy_rows(monkeypatch) -> list[tuple[np.ndarray, persistence._Strips]]:
    """Record the halves and the column index of every block handed to _near_edges."""
    calls = []
    near_edges = persistence._near_edges

    def spy(p, half_p, q):
        calls.append((half_p.copy(), q))
        return near_edges(p, half_p, q)

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


def crowded_diagram(rng, max_points: int) -> list[tuple[float, float]]:
    """Points around one or two birth centres, rounded to tenths: many points
    compete for the same partner, so the lower bound is often not the optimum."""
    n = int(rng.integers(0, max_points + 1))
    centres = rng.uniform(0, 4, size=int(rng.integers(1, 3)))
    births = (centres[rng.integers(0, centres.size, n)] + rng.uniform(0, 1, n)).round(1)
    lives = rng.uniform(1, 4, n).round(1)
    return [(float(x), float(x + y)) for x, y in zip(births, lives)]


def test_warm_started_search_matches_oracles(monkeypatch):
    warm = []
    call = persistence._Cover.__call__

    def spy(cover, t):
        # a test that augments a kept matching: one with a matched row
        warm.append(t < cover.passed and any(v >= 0 for v in cover.failed[0]))
        return call(cover, t)

    monkeypatch.setattr(persistence._Cover, "__call__", spy)
    rng = np.random.default_rng(308)
    misses = searched = 0
    for k in range(240):
        a, b = crowded_diagram(rng, 6), crowded_diagram(rng, 6 if k % 8 else 0)
        warm.clear()
        got = pruned_distance(a, b)
        assert got == exhaustive_bottleneck(a, b), (a, b)
        if len(a) + len(b) <= 7:
            assert got == bruteforce_bottleneck(a, b), (a, b)
        misses += got > dense_lower_bound(a, b)
        searched += sum(warm)
    # measured: 50 pairs above the lower bound and 129 warm-started tests (a
    # cover's retry on its completed edges is part of the test that failed)
    assert misses >= 30 and searched >= 80


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
    rows_a = sum(half.size for half, q in calls if q.cols.size == n_b)
    rows_b = sum(half.size for half, q in calls if q.cols.size == n_a)
    # measured: 128 of 721 and 195 of 729 rows
    assert rows_a < 0.4 * n_a and rows_b < 0.4 * n_b, (rows_a, n_a, rows_b, n_b)
    assert rows_a + rows_b < 0.3 * (n_a + n_b)


def spy_outcomes(monkeypatch) -> tuple[list[bool], list[float], list[float]]:
    """Record whether each side held (its first _Cover test, at lb, passed
    without completing the cover), the level of every later test, and the
    level of every test that completed a cover."""
    held, tests, completed, covers = [], [], [], []
    call = persistence._Cover.__call__

    def call_spy(cover, t):
        lazy = cover.complete is not None
        result = call(cover, t)
        if lazy and cover.complete is None:
            completed.append(t)
        if any(c is cover for c in covers):
            tests.append(t)
        else:
            covers.append(cover)
            held.append(result and cover.complete is not None)
        return result

    monkeypatch.setattr(persistence._Cover, "__call__", call_spy)
    return held, tests, completed


@pytest.mark.parametrize("near", [1, 2, 64])
def test_certificate_and_fallback_match_oracles(monkeypatch, near):
    # blocks of two rows, so that most rows go through the screen; 64 near
    # points take in every point of these diagrams
    monkeypatch.setattr(persistence, "_ROW_BLOCK", 2)
    monkeypatch.setattr(persistence, "_NEAR", near)
    held, tests, completed = spy_outcomes(monkeypatch)
    rng = np.random.default_rng(310)
    misses = certified = fell_back = 0
    for k in range(300):
        make = crowded_diagram if k % 2 else integer_diagram
        a, b = make(rng, 16), make(rng, 16 if k % 10 else 0)
        held.clear()
        tests.clear()
        completed.clear()
        got = pruned_distance(a, b)
        assert got == dense_bottleneck(a, b), (a, b)
        if len(a) + len(b) <= 9:
            assert got == exhaustive_bottleneck(a, b), (a, b)
        miss = got > dense_lower_bound(a, b)
        misses += miss
        if held:
            certified += all(held)
            fell_back += not all(held)
            # a pair whose two sides hold runs no test above lb and completes no cover
            assert all(held) == (not tests and not completed)
            assert not (miss and all(held))
        if near == 64:  # every screen window is the whole other side: the certificate is exact
            assert (bool(held) and not all(held)) == miss, (a, b)
    # measured: 71 misses; 80 / 83 / 96 pairs certified and 87 / 84 / 71
    # fallbacks at near 1 / 2 / 64 (the other 133 pairs have lb at the cap)
    assert misses >= 50 and certified >= 55 and fell_back >= misses
    if near < 64:
        assert fell_back >= misses + 8  # a narrow window also fails where lb holds


def test_certificate_settles_a_pair_where_the_lower_bound_holds(monkeypatch):
    truth = small_rough_field((60, 120))
    # noise seed 0: lb holds (with seed 1, as in the tests above, it does not)
    noise = np.random.default_rng(0).standard_normal(truth.shape)
    pred = np.clip(truth + 0.02 * noise, 0.0, 1.0)
    a, b = sublevel_persistence(truth, 1), sublevel_persistence(pred, 1)
    held, tests, completed = spy_outcomes(monkeypatch)
    got = bottleneck_distance(a, b)
    assert got == dense_lower_bound(a.finite_pairs, b.finite_pairs)
    assert held == [True, True] and tests == [] and completed == []


def test_cover_completes_once_on_its_first_failure():
    # both rows are forced below half 3; row 1 needs column 0, and only the
    # full graph joins row 0 to column 1 as well
    full = (np.array([0, 0, 1], np.int32), np.array([0, 1, 0], np.int32), np.array([1.0, 1.0, 1.0]))
    at_hand = tuple(e[:1] for e in full)  # row 0 to column 0 only
    half = np.array([3.0, 3.0])
    calls = []

    def complete(k):
        calls.append(k)
        return full

    lb = 2.0  # every edge is within lb
    for t in (0.5, 1.0, 2.0):  # each level on a fresh lazy cover gives the full graph's answer
        assert (persistence._Cover([at_hand], lb, half, 2, complete)(t)
                == persistence._Cover([full], lb, half, 2, None)(t))
    calls.clear()
    cover = persistence._Cover([at_hand], lb, half, 2, complete)
    assert cover(1.0) and calls == [2]
    assert not cover(0.5) and cover(2.0) and calls == [2]
    sufficient = persistence._Cover([full], lb, half, 2, complete)
    assert sufficient(1.0) and sufficient(2.0) and calls == [2]


# ---------------------------------------------------------------------------
# Structural channels


def stable_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = values.reshape(values.shape[:-2] + (-1,))
    order = np.argsort(flat, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(flat.shape[-1]), axis=-1)
    return rank, order


def tie_mix_batch(rng, shape, n) -> np.ndarray:
    """n grids cycling through distinct values, small-integer ties, signed zeros and constants."""
    grids = []
    for k in range(n):
        kind = k % 4
        if kind == 0:
            g = rng.uniform(-1.0, 1.0, size=shape)
        elif kind == 1:
            g = rng.integers(0, 3, size=shape) / 2.0
        elif kind == 2:
            g = rng.choice([-0.0, 0.0, 0.5, -0.5], size=shape)
        else:
            g = np.full(shape, rng.choice([0.0, -0.0, 0.25]))
        grids.append(g)
    return np.stack(grids)


def test_vertex_ranks_equal_a_stable_argsort():
    rng = np.random.default_rng(45)
    batches = [tie_mix_batch(rng, shape, n) for shape in ((3, 3), (3, 17), (17, 3), (3, 64), (64, 3)) for n in (1, 4, 9)]
    batches.append(tie_mix_batch(rng, (5, 7), 12).reshape(3, 4, 5, 7))  # two batch axes
    batches.append(tie_mix_batch(rng, (3, 5), 1)[0])  # no batch axis
    rough = np.stack([rough_field(), np.round(rough_field(), 3), 1.0 - rough_field()])
    batches.append(rough.astype(np.float32).astype(np.float64))
    tied_rows = untied_rows = 0
    for values in batches:
        rank, order = vertex_ranks(values)
        want_rank, want_order = stable_ranks(values)
        assert rank.shape == order.shape == values.shape[:-2] + (values.shape[-2] * values.shape[-1],)
        assert np.array_equal(order, want_order), values
        assert np.array_equal(rank, want_rank), values
        for row in values.reshape((-1,) + values.shape[-2:]):
            distinct = np.unique(row).size
            tied_rows += distinct < row.size
            untied_rows += distinct == row.size
    assert tied_rows > 50 and untied_rows > 10, (tied_rows, untied_rows)


@pytest.mark.parametrize("values", [
    [2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0],  # ties
    [0.0, -0.0, 0.0, -1.0, -0.0, 1.0, 0.0, -0.0],  # signed zeros compare equal
    [np.inf, -np.inf, np.inf, 0.0, -np.inf, 5e-324, -5e-324],
    [1.0 + k * 2.0**-52 for k in (3, 1, 3, 0, 2, 1)],  # ties among values one ulp apart
    [],
    [7.0],
], ids=["ties", "signed-zeros", "infinities", "ulps", "empty", "one"])
def test_stable_argsort_equals_numpy_stable_argsort(values):
    x = np.array(values, dtype=np.float64)
    got = stable_argsort(x)
    assert got.dtype == np.intp and np.array_equal(got, np.argsort(x, kind="stable"))
    strided = np.stack([x, -x], 1)[:, 1]  # a column of a pair array, as the bottleneck passes
    assert np.array_equal(stable_argsort(strided), np.argsort(strided, kind="stable"))
    rows = np.stack([x, x[::-1], np.sort(x)])  # rows whose ends tie with the next row's start
    assert np.array_equal(stable_argsort(rows), np.argsort(rows, axis=-1, kind="stable"))


@given(st.lists(st.floats(allow_nan=False), max_size=300)
       | st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf]), max_size=300))
@settings(max_examples=200, deadline=None)
def test_stable_argsort_equals_numpy_stable_argsort_on_random_floats(values):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(stable_argsort(x), np.argsort(x, kind="stable"))
    rows = x[:x.size // 3 * 3].reshape(-1, 3)
    assert np.array_equal(stable_argsort(rows), np.argsort(rows, axis=-1, kind="stable"))


def test_vertex_ranks_and_the_bottleneck_order_through_one_helper(monkeypatch):
    calls = []

    def spy(values):
        calls.append(values.size)
        return stable_argsort(values)

    monkeypatch.setattr(order, "stable_argsort", spy)
    monkeypatch.setattr(persistence, "stable_argsort", spy)
    vertex_ranks(np.zeros((3, 4, 5)))
    assert calls == [60]  # one call for the batch
    a = PersistenceDiagram(1, [(0.0, 2.0), (0.5, 1.0)])
    calls.clear()
    assert bottleneck_distance(a, PersistenceDiagram(1, [(0.1, 1.9)])) == 0.25
    assert sorted(calls) == [1, 1, 1, 2, 2, 2]  # each side's halves, births and deaths
    calls.clear()
    assert bottleneck_distance(a, PersistenceDiagram(1, [])) == 1.0  # an empty side is ordered too
    assert sorted(calls) == [0, 0, 0, 2, 2, 2]


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


def test_stack_contours_match_straddle_oracle_field_by_field():
    rng = np.random.default_rng(46)
    shape = (16, 20)
    fields = []
    for k in range(6):  # a few saddles each, so that no field's mask is all ones; odd fields tie-heavy
        f = _smooth_field((7, k), shape) + 0.01 * rng.standard_normal(shape)
        f = np.round(f, 1) if k % 2 else f
        fields.append((f - f.min()) / (f.max() - f.min()))
    assert len(fields) * shape[0] * shape[1] <= _CHUNK_CELLS  # one kernel call: ranks offset per field
    got = build_structural_stack(date_stack(fields), threads=1).values
    for k, f in enumerate(fields):
        saddles = [(p.row, p.col) for p in classify_critical_points(f) if p.kind is CriticalKind.SADDLE]
        assert saddles, k  # every field adds levels to the block's table, the first and the last too
        assert saddles == [(int(r), int(c)) for r, c in zip(*np.nonzero(got[k, 1] == T_SADDLE))]
        expected = np.zeros(shape, dtype=bool)
        for rc in saddles:
            expected |= straddle_mask(f, rc)
        assert 0.1 < expected.mean() < 0.9, k
        assert np.array_equal(got[k, 3], expected.astype(np.float64)), k


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


def test_v_channel_keeps_each_critical_value_bit_for_bit():
    # signed zeros and values just below 0 (inside the normalization
    # tolerance) at critical and regular cells: V is the field's value where
    # T is not regular, bit for bit, and +0.0 elsewhere
    rng = np.random.default_rng(44)
    fields = [rng.choice([-0.0, 0.0, -1e-10, 0.5, 1.0], size=(6, 9)) for _ in range(20)]
    got = build_structural_stack(date_stack(fields), threads=1).values
    for f, (_, t, v, _) in zip(fields, got):
        assert v.tobytes() == np.where(t != 0.0, f, 0.0).tobytes()
    assert np.signbit(got[:, 2][got[:, 1] != 0.0]).any() and not np.signbit(got[:, 2][got[:, 1] == 0.0]).any()


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
    g = g / g.sum()

    def window(x):
        return ndimage.correlate1d(ndimage.correlate1d(x, g, 0, mode="reflect"), g, 1, mode="reflect")

    mu_p, mu_t = window(p), window(t)
    var_p = window(p * p) - mu_p * mu_p
    var_t = window(t * t) - mu_t * mu_t
    cov = window(p * t) - mu_p * mu_t
    num = (2.0 * mu_p * mu_t + 0.01**2) * (2.0 * cov + 0.03**2)
    den = (mu_p * mu_p + mu_t * mu_t + 0.01**2) * (var_p + var_t + 0.03**2)
    return float(np.sqrt(((pk - tk) ** 2).mean())), psnr, float((num / den).mean()), acc


def separable_local_mean(x, axes=(-2, -1)):
    """``ndimage.correlate1d`` with the SSIM weights along ``axes[0]``, then along ``axes[1]``."""
    from scipy import ndimage

    for axis in axes:
        x = ndimage.correlate1d(x, _SSIM_WEIGHTS, axis, mode="reflect")
    return x


@pytest.mark.parametrize("shape", [(1, 11, 11), (3, 12, 40), (31, 24, 32), (2, 101, 237)])
def test_local_mean_is_byte_equal_to_ndimage_correlate(shape):
    from scipy import ndimage

    rng = np.random.default_rng(sum(shape))
    a, b = rng.uniform(0.0, 1.0, size=(2, *shape))
    window = np.outer(_SSIM_WEIGHTS, _SSIM_WEIGHTS)[None]
    reordered_differs = False
    for x in (a, a * a, a * b):
        want = separable_local_mean(x)
        assert _local_mean(x).tobytes() == want.tobytes()
        reordered_differs |= separable_local_mean(x, axes=(-1, -2)).tobytes() != want.tobytes()
        # the 2-D correlation sums the same 121 products in another order;
        # on these inputs in [0, 1] the two differ by at most 1.0e-15
        assert np.abs(_local_mean(x) - ndimage.correlate(x, window, mode="reflect")).max() <= 2e-15
    # the comparison is exact enough to tell columns-then-rows apart
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


def test_kde_holds_one_block_buffer():
    rng = np.random.default_rng(62)
    samples, grid = rng.normal(size=8000), np.linspace(-5.0, 5.0, 2048)
    tracemalloc.start()
    try:
        _kde(samples, 0.3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 512 KB block of 8 grid points x 8000 samples, and the 16 KB output
    assert peak < 0.75e6, peak


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
    # blocks of 2048, 65 and 1 grid points, with terms that underflow to 0.0
    # and subnormal terms: the blocked sum must not change a single bit
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
    """Importing topofield, and running any command (``synth`` on the README's
    24x32 grid among them), loads no scipy module."""
    (tmp_path / "readme.json").write_text(json.dumps({
        "n_years": 5, "height": 24, "width": 32, "annual_amp": 8.0, "interannual_amp": 2.0,
        "weather_amp": 3.0, "ar1_coeff": 0.85, "seed": 7}))
    argvs = command_argvs(tmp_path) + [
        ["synth", "--spec", str(tmp_path / "readme.json"), "--output", str(tmp_path / "readme.gfs")]]
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


# Besides cli, errors, field and gfs: the topofield modules each command
# loads, and whether it loads concurrent.futures, at --threads 1.
COMMAND_FOOTPRINTS = {
    "import": (set(), False),
    "stats": (set(), False),
    "normalize": (set(), False),
    "channels": ({"order", "structural"}, False),
    "sample": ({"order", "structural", "temporal"}, False),
    "persistence": ({"order", "persistence"}, False),
    "bottleneck": ({"order", "persistence"}, False),
    "fuse": ({"fusion", "order", "structural", "temporal"}, False),
    "regularize": ({"fusion", "order", "structural", "temporal"}, False),
    "losses": ({"losses", "metrics", "order", "persistence"}, False),
    "losses --lambda": ({"fusion", "losses", "metrics", "order", "persistence", "structural", "temporal"}, False),
    "evaluate": ({"metrics"}, False),
    "stratify": ({"metrics"}, False),
    "synth": ({"synthetic"}, False),
}


def test_each_command_loads_only_its_own_modules(tmp_path):
    """In a fresh interpreter, ``import topofield`` loads no submodule and each
    command (at ``--threads 1``) loads only the modules it runs."""
    runs = [("import", [])]
    for argv in command_argvs(tmp_path):  # in order: each reads what an earlier one wrote
        if argv[0] == "losses":
            lam = argv.index("--lambda")
            runs.append(("losses", argv[:lam] + argv[lam + 2:]))
            runs.append(("losses --lambda", argv))
        else:
            runs.append((argv[0], argv))
    runs.append(("synth", ["synth", "--spec", str(tmp_path / "spec.json"), "--output", str(tmp_path / "again.gfs")]))
    code = """import contextlib, io, json, sys
argv = json.loads(sys.stdin.read())
if argv:
    from topofield.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv + ["--threads", "1"]) == 0
else:
    import topofield
names = {m.split(".", 1)[1] for m in sys.modules if m.startswith("topofield.")}
print(json.dumps([sorted(names - {"cli", "errors", "field", "gfs"}), "concurrent.futures" in sys.modules]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    footprints = {}
    for name, argv in runs:
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(argv), capture_output=True, text=True,
                             env={"PYTHONPATH": src, "PATH": ""})
        assert out.returncode == 0, (name, out.stderr)
        modules, futures = json.loads(out.stdout)
        footprints[name] = (set(modules), futures)
    assert footprints == COMMAND_FOOTPRINTS


# ---------------------------------------------------------------------------
# The package namespace: every public name, resolved on first use

# What ``topofield`` exports, by defining module, as its eager imports did.
PACKAGE_EXPORTS = {
    "errors": "TopofieldError",
    "field": "FieldStack NormStats ScalarField SplitSpec compute_norm_stats denormalize denormalize_stack "
             "normalize_stack",
    "fusion": "LambdaMap RegWeights apply_residual entropy_term fuse l_reg lead_map mean_balance positional_encoding tv",
    "gfs": "read_stack stack_from_bytes stack_to_bytes write_stack",
    "losses": "GateSchedule LossWeights composite_loss content_loss hinge_d hinge_g loss_report mae ssim topo_loss",
    "metrics": "BinSpec EvalRecord StratRow acc evaluate_stack kde_overlap lambda_bin_analysis lead_time_curves "
               "make_eval_record psnr rmse season_of seasonal_summary tail_overlap",
    "order": "",
    "persistence": "FILTRATION_CONFIG PersistenceDiagram bottleneck_distance diagrams_to_csv filter_by_persistence "
                   "read_diagram_csv sublevel_persistence sublevel_persistence_reduction write_diagram_csv",
    "structural": "CriticalKind CriticalPoint MultiChannelField build_structural_channels build_structural_stack "
                  "classify_critical_points extract_saddle_contours",
    "synthetic": "BumpSpec ClimateSpec gaussian_mixture_field generate_climate oracle_lambda",
    "temporal": "Climatology DualSample LeadTime build_climatology build_sample climatology_forecast "
                "interannual_dates intra_dates read_manifest sample_lead_times validate_split write_manifest",
}


def test_package_namespace_holds_every_export_and_submodule():
    import topofield

    names = {name: module for module, exported in PACKAGE_EXPORTS.items() for name in exported.split()}
    assert len(names) == 80
    assert topofield.__all__ == sorted([*names, *PACKAGE_EXPORTS])
    for name, module in names.items():
        assert getattr(topofield, name) is getattr(importlib.import_module(f"topofield.{module}"), name), name
    for module in PACKAGE_EXPORTS:
        assert getattr(topofield, module) is importlib.import_module(f"topofield.{module}")
    star: dict = {}
    exec("from topofield import *", star)
    assert set(star) - {"__builtins__"} == set(topofield.__all__)
    assert set(topofield.__all__) <= set(dir(topofield))
    with pytest.raises(AttributeError, match="module 'topofield' has no attribute 'no_such_name'"):
        topofield.no_such_name  # noqa: B018


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


def _bench_library_names(tree) -> set[str]:
    """Dotted ``topofield`` paths a bench source names: imports, then attribute chains on what they bind."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "topofield"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "topofield":
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    names = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id]] + chain))
    return names


def test_every_library_name_the_bench_uses_resolves():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = set()
    for source in ("workloads.py", "inputs.py", "checks.py", "test_checks.py"):
        names |= _bench_library_names(ast.parse((bench / source).read_text()))
    assert {"topofield.build_structural_channels", "topofield.gfs.days_to_date", "topofield.cli"} <= names
    for name in sorted(names):
        obj = importlib.import_module("topofield")
        for part in name.split(".")[1:]:
            if not hasattr(obj, part) and inspect.ismodule(obj):
                try:  # a from-import of a submodule loads it
                    importlib.import_module(f"{obj.__name__}.{part}")
                except ModuleNotFoundError:
                    pass
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
