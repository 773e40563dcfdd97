"""Sublevel-set cubical persistence on 2D grids and the bottleneck distance.

The complex is the V-construction: pixels are vertices, 4-neighbors are
joined by edges, and unit squares are filled when all four corners exist.
A cell enters the filtration at the perturbed value of its maximal vertex,
so the filtration is a strict total order (ties broken by linear index).

The default route, :func:`sublevel_persistence`, runs one elder-rule
union-find kernel for both dimensions. H0 sweeps the edges upward over the
vertices. H1 follows from image duality as H0 of the dual graph, whose
nodes are the unit squares plus one outer face, with the edges swept
downward. :func:`sublevel_persistence_reduction` reduces the Z2 boundary
matrices instead (Python-int bitset columns, with clearing); it is the
cross-check route, and the two are tested against each other.

Pairs whose birth and death cells share the same maximal vertex are
instantaneous in the perturbed filtration and never appear. Pairs with zero
*unperturbed* persistence (distinct vertices, equal field values) are
retained; callers filter them explicitly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EssentialCountMismatch, FormatError
from .field import as_values
from .order import vertex_ranks

INF = math.inf
_WINDOW_CHUNK = 1 << 16  # birth-window entries the bottleneck examines per block of rows
_ROW_BLOCK = 128  # rows whose relevant edges the bottleneck builds at a time

# Recorded in machine-readable outputs for provenance.
FILTRATION_CONFIG = {
    "construction": "V",
    "cell_value": "max_vertex",
    "tie_break": "linear_index",
    "direction": "sublevel",
}


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) intervals for one homology dimension."""

    dim: int
    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dim not in (0, 1):
            raise DimensionMismatch(f"homology dimension must be 0 or 1, got {self.dim}")
        clean = []
        for b, d in self.pairs:
            b = float(b)
            d = float(d)
            if not math.isfinite(b):
                raise FormatError(f"birth {b!r} is not finite")
            if not d >= b:
                raise FormatError(f"death {d!r} precedes birth {b!r}")
            clean.append((b, d))
        clean.sort(key=lambda p: (p[0], p[1]))
        object.__setattr__(self, "pairs", tuple(clean))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def finite_pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(p for p in self.pairs if math.isfinite(p[1]))

    @property
    def essential_births(self) -> tuple[float, ...]:
        return tuple(b for b, d in self.pairs if math.isinf(d))


# ---------------------------------------------------------------------------
# Complex construction and the elder-rule kernel
#
# Cells are ordered by (rank, id), where a cell's rank is the rank of its
# maximal vertex; a stable argsort of the ranks gives that order.


def _ranked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ranks as an (h, w) grid, and the field value at each rank."""
    rank, order = vertex_ranks(values)
    return rank.reshape(values.shape), values.ravel()[order]


def _edge_ends(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint ranks of every edge: horizontal edges first, each block row-major."""
    return (
        np.concatenate([rank[:, :-1].ravel(), rank[:-1, :].ravel()]),
        np.concatenate([rank[:, 1:].ravel(), rank[1:, :].ravel()]),
    )


def _square_ranks(rank: np.ndarray) -> np.ndarray:
    """Rank of every unit square, row-major."""
    return np.maximum(
        np.maximum(rank[:-1, :-1], rank[:-1, 1:]), np.maximum(rank[1:, :-1], rank[1:, 1:])
    ).ravel()


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def _elder_merges(n_nodes: int, ends_a: np.ndarray, ends_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find sweep over edges listed in sweep order, by the elder rule.

    Node ids run from oldest (0) to youngest, and each component is rooted
    at its oldest node. When an edge joins two components, the younger root
    dies there. Returns the sweep index of every merging edge and the root
    it kills, in sweep order.

    A node whose first edge leads to an older node is still alone when that
    edge is swept, so it dies there. Those deaths are taken at once, and
    pointer jumping contracts each such node into the label of its oldest
    ancestor, which is in its component whenever a later edge touches it.
    Edges inside one label, and repeats of a label pair, merge nothing; the
    Python sweep runs over the rest.
    """
    n_edges = ends_a.size
    first = np.full(n_nodes, n_edges)  # each node's first edge, n_edges if it has none
    np.minimum.at(first, np.concatenate([ends_a, ends_b]), np.tile(np.arange(n_edges), 2))
    nodes = np.flatnonzero(first < n_edges)
    other = ends_a[first[nodes]] + ends_b[first[nodes]] - nodes
    dies = other < nodes  # a self-loop leads to no older node
    label = np.arange(n_nodes)
    label[nodes[dies]] = other[dies]
    while True:
        up = label[label]
        if np.array_equal(up, label):
            break
        label = up
    ends = label[ends_a], label[ends_b]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    rest = np.flatnonzero(lo != hi)
    # the first edge of each label pair, in sweep order
    rest = np.sort(rest[np.unique(lo[rest] * n_nodes + hi[rest], return_index=True)[1]])
    parent = list(range(n_nodes))
    steps: list[int] = []
    dead: list[int] = []
    for k, x, y in zip(rest.tolist(), lo[rest].tolist(), hi[rest].tolist()):
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
    all_steps = np.concatenate([first[nodes[dies]], np.array(steps, dtype=np.int64)])
    by_step = np.argsort(all_steps)
    return all_steps[by_step], np.concatenate([nodes[dies], np.array(dead, dtype=np.int64)])[by_step]


def _h0_union_find(values: np.ndarray) -> list[tuple[float, float]]:
    """H0 pairs: ascending edge sweep over the vertices, whose ranks are their ages."""
    rank, vals = _ranked(values)
    lo, hi = _edge_ends(rank)
    edge_rank = np.maximum(lo, hi)
    order = np.argsort(edge_rank, kind="stable")
    steps, dead = _elder_merges(rank.size, lo[order], hi[order])
    death = edge_rank[order[steps]]
    keep = dead != death
    alive = np.ones(rank.size, dtype=bool)
    alive[dead] = False
    pairs = list(zip(vals[dead[keep]].tolist(), vals[death[keep]].tolist()))
    return pairs + [(b, INF) for b in vals[alive].tolist()]


def _h1_union_find(values: np.ndarray) -> list[tuple[float, float]]:
    """H1 pairs as H0 of the dual graph, swept from the top of the filtration.

    The dual graph joins the two unit squares on either side of every edge;
    a boundary edge leads to one outer face. Edges are swept in descending
    order. A component's age is its latest square and the outer face is the
    oldest, so a merging edge is the birth of a loop that the younger
    component's latest square fills (image duality, Garin et al. 2020,
    arXiv:2005.04597). A square ranks no lower than its edges, so every
    square is present when its edges are swept.
    """
    rank, vals = _ranked(values)
    h, w = rank.shape
    sq_rank = _square_ranks(rank)
    sq_order = np.argsort(sq_rank, kind="stable")
    n_sq = sq_rank.size
    # node 0 is the outer face (the padding); squares follow, latest first
    node = np.zeros((h + 1, w + 1), dtype=np.int64)
    node[1:h, 1:w] = (n_sq - _inverse(sq_order)).reshape(h - 1, w - 1)
    # faces above/below each horizontal edge, then left/right of each vertical one
    face_a = np.concatenate([node[:-1, 1:-1].ravel(), node[1:-1, :-1].ravel()])
    face_b = np.concatenate([node[1:, 1:-1].ravel(), node[1:-1, 1:].ravel()])
    lo, hi = _edge_ends(rank)
    edge_rank = np.maximum(lo, hi)
    order = np.argsort(edge_rank, kind="stable")[::-1]
    steps, dead = _elder_merges(n_sq + 1, face_a[order], face_b[order])
    # list pairs in square order, as the reduction route does
    by_square = np.argsort(-dead)
    birth = edge_rank[order[steps[by_square]]]
    death = sq_rank[sq_order[n_sq - dead[by_square]]]
    keep = birth != death
    return list(zip(vals[birth[keep]].tolist(), vals[death[keep]].tolist()))


def _reduce_columns(columns: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Left-to-right Z2 reduction; returns pivot row -> (column index, column bits)."""
    pivots: dict[int, tuple[int, int]] = {}
    for cid, col in enumerate(columns):
        while col:
            low = col.bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                break
            col ^= hit[1]
        if col:
            pivots[col.bit_length() - 1] = (cid, col)
    return pivots


def sublevel_persistence(field, dim: int) -> PersistenceDiagram:
    """Persistence diagram of the sublevel filtration in dimension 0 or 1.

    Births and deaths are reported as the unperturbed field values of the
    defining vertices; +inf marks essential classes.
    """
    values = as_values(field)
    if dim == 0:
        return PersistenceDiagram(0, tuple(_h0_union_find(values)))
    if dim == 1:
        return PersistenceDiagram(1, tuple(_h1_union_find(values)))
    raise DimensionMismatch(f"dimension must be 0 or 1, got {dim}")


def sublevel_persistence_reduction(field, dim: int) -> PersistenceDiagram:
    """Boundary-matrix route for both dimensions, with clearing.

    Columns are Python-int bitsets over rows in filtration order. The
    square/edge matrix is reduced first; for dimension 0, the edges it pairs
    are cleared (their columns zeroed) before the edge/vertex reduction.
    Agrees with :func:`sublevel_persistence` on every input.
    """
    values = as_values(field)
    if dim not in (0, 1):
        raise DimensionMismatch(f"dimension must be 0 or 1, got {dim}")
    rank, vals = _ranked(values)
    h, w = rank.shape
    lo, hi = _edge_ends(rank)
    edge_rank = np.maximum(lo, hi)
    edge_order = np.argsort(edge_rank, kind="stable")
    sq_rank = _square_ranks(rank)
    sq_order = np.argsort(sq_rank, kind="stable")
    horiz = np.arange(h * (w - 1)).reshape(h, w - 1)
    vert = horiz.size + np.arange((h - 1) * w).reshape(h - 1, w)
    # the four edges of each square: top, bottom, left, right
    sides = np.stack([horiz[:-1].ravel(), horiz[1:].ravel(), vert[:, :-1].ravel(), vert[:, 1:].ravel()], 1)
    squares = _inverse(edge_order)[sides[sq_order]].tolist()
    h1 = _reduce_columns((1 << a) | (1 << b) | (1 << c) | (1 << d) for a, b, c, d in squares)
    if len(h1) != sq_rank.size:
        # A zero square column would be a 2-cycle; impossible on a planar patch.
        raise AssertionError("square/edge reduction produced a zero column")
    edge_rank = edge_rank[edge_order]
    essential: list[int] = []
    if dim == 1:
        sq_rank = sq_rank[sq_order]
        pairs = [(edge_rank[low], sq_rank[k]) for low, (k, _) in h1.items()]
    else:
        ends = np.stack([lo, hi], 1)[edge_order].tolist()
        h0 = _reduce_columns(0 if pos in h1 else (1 << a) | (1 << b) for pos, (a, b) in enumerate(ends))
        pairs = [(low, edge_rank[k]) for low, (k, _) in h0.items()]
        # vertex ranks never used as a pivot row are components that survive
        essential = [r for r in range(rank.size) if r not in h0]
    finite = [(float(vals[b]), float(vals[d])) for b, d in pairs if b != d]
    return PersistenceDiagram(dim, tuple(finite + [(float(vals[r]), INF) for r in essential]))


def filter_by_persistence(pd: PersistenceDiagram, min_persistence: float) -> PersistenceDiagram:
    """Drop finite pairs with death - birth < min_persistence; keep essentials."""
    if not min_persistence >= 0:
        raise FormatError(f"min_persistence must be a nonnegative number, got {min_persistence!r}")
    kept = tuple(
        (b, d) for b, d in pd.pairs if math.isinf(d) or d - b >= min_persistence
    )
    return PersistenceDiagram(pd.dim, kept)


# ---------------------------------------------------------------------------
# Bottleneck distance


def _hopcroft_karp(n_left: int, n_right: int, adj: Sequence[Sequence[int]]) -> int:
    """Maximum bipartite matching size (BFS/DFS phase algorithm)."""
    inf = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = inf
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size


def _saturates(rows, cols, dist, half: np.ndarray, n_cols: int, t: float) -> bool:
    """Can every row forced at t (half above t) be matched injectively to a column within t?"""
    forced = half > t
    keep = forced[rows] & (dist <= t)
    degree = np.bincount(rows[keep], minlength=forced.size)[forced]
    cols = cols[keep].tolist()
    ends = np.cumsum(degree).tolist()
    adj = [cols[s:e] for s, e in zip([0] + ends[:-1], ends)]
    return _hopcroft_karp(degree.size, n_cols, adj) == degree.size


@np.errstate(over="ignore")
def _near_edges(p: np.ndarray, half_p: np.ndarray, q: np.ndarray, order: np.ndarray):
    """Rows (in order), columns and L-infinity distances d of the pairs with d < half_p[row].

    ``order`` is the stable birth order of q. Candidates are the inclusive
    birth windows, which rounding never narrows: fl(|y - b|) < h means
    |y - b| < h exactly, so fl(b - h) <= y <= fl(b + h). A window end or a
    distance that overflows to inf keeps that true, and such a distance is
    never relevant.
    """
    births = q[order, 0]
    start = np.searchsorted(births, p[:, 0] - half_p, "left")
    count = np.searchsorted(births, p[:, 0] + half_p, "right") - start
    cuts = np.searchsorted(np.cumsum(count), np.arange(_WINDOW_CHUNK, count.sum(), _WINDOW_CHUNK), "right")
    bounds = [0, *cuts.tolist(), len(p)]
    parts = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        c = count[r0:r1]
        i = np.repeat(np.arange(r0, r1, dtype=np.int32), c)
        j = order[np.arange(i.size) + np.repeat(start[r0:r1] - (np.cumsum(c) - c), c)]
        d = np.maximum(np.abs(p[i, 0] - q[j, 0]), np.abs(p[i, 1] - q[j, 1]))
        keep = d < half_p[i]
        parts.append((i[keep], j[keep], d[keep]))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _by_half(points: list) -> tuple[np.ndarray, np.ndarray]:
    """Points as an (n, 2) array in descending half-persistence, and their halves.

    A half is (death - birth) / 2, or death/2 - birth/2 where the difference
    overflows.
    """
    arr = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
    with np.errstate(over="ignore"):
        span = arr[:, 1] - arr[:, 0]
    half = np.where(np.isinf(span), arr[:, 1] / 2.0 - arr[:, 0] / 2.0, span / 2.0)
    order = np.argsort(-half, kind="stable")
    return arr[order], half[order]


def _finite_bottleneck(a: list, b: list) -> float:
    if not a and not b:
        return 0.0
    # A point forced at t (half above t) can use an edge only if d <= t < its
    # half, and no point on the diagonal is within its half: each side needs
    # just its rows' relevant edges (d below the row's half), and feasibility
    # changes only at a half or a relevant distance. Every point pays at least
    # its half or its nearest relevant distance, and the largest payment lb
    # bounds the optimum from below. Rows are visited by descending half, the
    # side with the larger next half first, until that half is at most lb:
    # such a row cannot raise lb, is never forced at t >= lb, and its
    # distances lie below lb, so the search never needs its edges.
    sides = [_by_half(a), _by_half(b)]
    orders = [np.argsort(arr[:, 0], kind="stable").astype(np.int32) for arr, _ in sides]
    empty = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))
    edges = [[empty], [empty]]
    seen = [0, 0]
    lb = 0.0
    while True:
        heads = [half[n] if n < half.size else -INF for (_, half), n in zip(sides, seen)]
        s = int(heads[1] > heads[0])
        if not heads[s] > lb:
            break
        (p, half), r0 = sides[s], seen[s]
        r1 = r0 + int(np.count_nonzero(half[r0:r0 + _ROW_BLOCK] > lb))
        rows, cols, d = _near_edges(p[r0:r1], half[r0:r1], sides[1 - s][0], orders[1 - s])
        pay = half[r0:r1].copy()
        np.minimum.at(pay, rows, d)
        lb = max(lb, pay.max())
        edges[s].append((rows + r0, cols, d))
        seen[s] = r1
    edges_a, edges_b = (tuple(np.concatenate(x) for x in zip(*blocks)) for blocks in edges)
    (_, half_a), (_, half_b) = sides

    def feasible(t: float) -> bool:
        # Mendelsohn-Dulmage: covers of each side's forced points merge into one matching
        return _saturates(*edges_a, half_a, half_b.size, t) and _saturates(*edges_b, half_b, half_a.size, t)

    levels = np.unique(np.concatenate((half_a, half_b, edges_a[2], edges_b[2])))
    levels = levels[np.searchsorted(levels, lb):]
    # the all-diagonal matching (the largest half) caps the optimum
    if not feasible(levels[-1]):
        raise AssertionError("bottleneck search has no feasible candidate")
    lo, hi, mid = 0, len(levels) - 1, 0  # probe the lower bound first: often it is the optimum
    while lo < hi:
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(levels[lo])


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two same-dimension diagrams.

    Finite pairs match each other or their diagonal projection; essential
    pairs match by birth difference. Only relevant edges (pairs nearer than
    the row's half-persistence) are built, and only for rows whose half lies
    above the largest per-point lower bound. That bound is tested first,
    then a binary search over the exact candidate costs.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"diagram dimensions differ: {a.dim} vs {b.dim}")
    ess_a = sorted(a.essential_births)
    ess_b = sorted(b.essential_births)
    if len(ess_a) != len(ess_b):
        raise EssentialCountMismatch(
            f"{len(ess_a)} vs {len(ess_b)} essential classes (distance is infinite)"
        )
    ess_cost = max((abs(x - y) for x, y in zip(ess_a, ess_b)), default=0.0)
    fin_cost = _finite_bottleneck(list(a.finite_pairs), list(b.finite_pairs))
    return max(ess_cost, fin_cost)


# ---------------------------------------------------------------------------
# Diagram CSV (header "dim,birth,death"; 17 significant digits; "inf" deaths)


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else format(x, ".17g")


def diagrams_to_csv(diagrams: Iterable[PersistenceDiagram]) -> str:
    lines = ["dim,birth,death"]
    for pd in diagrams:
        for b, d in pd.pairs:
            lines.append(f"{pd.dim},{_fmt(b)},{_fmt(d)}")
    return "\n".join(lines) + "\n"


def write_diagram_csv(path, diagrams: Iterable[PersistenceDiagram]) -> None:
    Path(path).write_text(diagrams_to_csv(diagrams))


def read_diagram_csv(path) -> dict[int, PersistenceDiagram]:
    """Parse a diagram CSV into one diagram per dimension present."""
    text = Path(path).read_text()
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header != ["dim", "birth", "death"]:
        raise FormatError(f"bad diagram CSV header: {header}")
    by_dim: dict[int, list[tuple[float, float]]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise FormatError(f"bad diagram CSV row: {row}")
        try:
            dim, birth = int(row[0]), float(row[1])
            death = INF if row[2].strip() == "inf" else float(row[2])
        except ValueError:
            raise FormatError(f"bad diagram CSV row: {row}") from None
        if not math.isfinite(birth):
            raise FormatError(f"bad diagram CSV row: {row} (birth is not finite)")
        by_dim.setdefault(dim, []).append((birth, death))
    return {dim: PersistenceDiagram(dim, tuple(pairs)) for dim, pairs in by_dim.items()}
