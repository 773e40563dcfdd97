"""Sublevel-set cubical persistence on 2D grids and the bottleneck distance.

The complex is the V-construction: pixels are vertices, 4-neighbors are
joined by edges, and unit squares are filled when all four corners exist.
A cell enters the filtration at the perturbed value of its maximal vertex,
so the filtration is a strict total order (ties broken by linear index).

The default route, :func:`sublevel_persistence`, runs one elder-rule
union-find kernel for both dimensions. H0 sweeps the 4-connected edges
upward over the vertices. H1 follows from image duality (Garin et al.
2020): H1 of the sublevel V-construction is H0 of the superlevel
8-connected vertex graph plus one outside node, swept downward. Both
sweeps first contract the grid into basins with whole-grid shifts: every
vertex joins its first older neighbour, and only the first edge between
each pair of basins reaches the union-find. A unit square's diagonal
enters H1's graph only when its ends are the square's two oldest corners.
:func:`sublevel_persistence_reduction` reduces the Z2 boundary matrices
instead (Python-int bitset columns, with clearing); it is the cross-check
route, and the two are tested against each other.

Pairs whose birth and death cells share the same maximal vertex are
instantaneous in the perturbed filtration and never appear. Pairs with zero
*unperturbed* persistence (distinct vertices, equal field values) are
retained; callers filter them explicitly.
"""

from __future__ import annotations

import csv
import math
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EssentialCountMismatch, FormatError
from .field import as_values
from .order import stable_argsort, vertex_ranks

INF = math.inf
_STRIP = 64  # points per birth strip of the bottleneck's column index
_ROW_BLOCK = 128  # rows per bottleneck pass; a pass scans at most 128 x m window entries
_NEAR = 48  # points of the other side, nearest in birth order, that the bottleneck's screen tries a row on
_FIRST_BIT = np.array([(p & -p).bit_length() - 1 for p in range(256)])  # a byte's lowest set bit, -1 for none

# Recorded in machine-readable outputs for provenance.
FILTRATION_CONFIG = {
    "construction": "V",
    "cell_value": "max_vertex",
    "tie_break": "linear_index",
    "direction": "sublevel",
}


class PersistenceDiagram:
    """Multiset of (birth, death) intervals for one homology dimension.

    The pairs live in ``array``, one read-only (n, 2) float64 array sorted by
    birth, then death. The sort is stable, so pairs that compare equal (-0.0
    and 0.0 included) keep their input order. ``pairs`` is the same multiset
    as a tuple of (birth, death) tuples.
    """

    def __init__(self, dim: int, pairs):
        if dim not in (0, 1):
            raise DimensionMismatch(f"homology dimension must be 0 or 1, got {dim}")
        arr = np.asarray(pairs, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise FormatError(f"pairs must be (birth, death) pairs, got an array of shape {arr.shape}")
        birth, death = arr[:, 0], arr[:, 1]
        bad = np.flatnonzero(~np.isfinite(birth) | ~(death >= birth))
        if bad.size:  # the first bad pair in input order, birth checked first
            b, d = arr[bad[0]].tolist()
            if not math.isfinite(b):
                raise FormatError(f"birth {b!r} is not finite")
            raise FormatError(f"death {d!r} precedes birth {b!r}")
        self.dim = dim
        self.array = arr[np.lexsort((death, birth))]
        self.array.flags.writeable = False

    @cached_property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.array[:, 0].tolist(), self.array[:, 1].tolist()))

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.dim, self.pairs))

    def __repr__(self) -> str:
        return f"PersistenceDiagram(dim={self.dim!r}, pairs={self.pairs!r})"

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


def _first_of_each_pair(lo: np.ndarray, hi: np.ndarray, n_nodes: int) -> np.ndarray:
    """Positions, ascending, of the first occurrence of each (lo, hi) pair."""
    key = lo * n_nodes + hi
    order = np.argsort(key)
    key = key[order]
    starts = np.ones(key.size, dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))


def _elder_merges(n_nodes: int, ends_a: np.ndarray, ends_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find sweep over edges listed in sweep order, by the elder rule.

    Node ids run from oldest (0) to youngest, and each component is rooted
    at its oldest node. When an edge joins two components, the younger root
    dies there. Returns the sweep index of every merging edge and the root
    it kills, in sweep order.

    The sweep runs in rounds over labels, each label the oldest node of a
    set already known to be connected whenever a later edge touches it. A
    label whose first edge to another label leads to an older label dies
    there: up to that edge its component lies inside its own set, so its
    root is still the label. Pointer jumping contracts each such label into
    the label of its oldest ancestor; edges inside one label, and repeats
    of a label pair, merge nothing and are dropped. Once a round kills fewer
    than 1/16 of the edges left (a chain of basins can kill one a round),
    the Python union-find sweeps the rest.
    """
    n_edges = ends_a.size
    label = np.arange(n_nodes)
    first = np.full(n_nodes, n_edges)  # each label's first edge this round, n_edges if it has none
    edge = np.flatnonzero(ends_a != ends_b)  # a self-loop merges nothing
    a, b = ends_a[edge], ends_b[edge]
    steps, dead = [], []
    while edge.size:
        m = edge.size
        np.minimum.at(first, a, np.arange(m))
        np.minimum.at(first, b, np.arange(m))
        nodes = np.flatnonzero(first < n_edges)
        at = first[nodes]
        first[nodes] = n_edges
        other = a[at] + b[at] - nodes
        dies = np.flatnonzero(other < nodes)
        killed = nodes[dies]
        steps.append(edge[at[dies]])
        dead.append(killed)
        label[killed] = other[dies]
        up = label[label[killed]]
        while not np.array_equal(up, label[killed]):
            label[killed] = up
            up = label[up]
        a, b = label[a], label[b]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rest = np.flatnonzero(lo != hi)
        rest = rest[_first_of_each_pair(lo[rest], hi[rest], n_nodes)]
        edge, a, b = edge[rest], lo[rest], hi[rest]
        if 16 * killed.size < m:
            break
    parent = list(range(n_nodes)) if edge.size else []  # the rounds often leave no edge
    tail_steps: list[int] = []
    tail_dead: list[int] = []
    for k, x, y in zip(edge.tolist(), a.tolist(), b.tolist()):
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
            tail_steps.append(k)
            tail_dead.append(y)
    all_steps = np.concatenate([*steps, np.array(tail_steps, dtype=np.int64)])
    by_step = np.argsort(all_steps)  # steps are distinct edges
    return all_steps[by_step], np.concatenate([*dead, np.array(tail_dead, dtype=np.int64)])[by_step]


def _basin_merges(age: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elder-rule merges of a grid graph, contracted to basins first.

    ``age`` gives every node of a flattened grid its age, 0 the oldest. Ages
    are distinct, except that all nodes of age 0 are one node (the outside),
    and every age up to the largest is some node's. Each of ``blocks`` is a
    (da, db, listed) triple with da < db: edge p of the block joins nodes
    p + da and p + db, and ``listed`` masks the edges that exist (None:
    every p that keeps both ends on the grid). An edge's time is the age of
    its younger end. Edges of equal time are swept in block order, and by p
    within a block.

    Each node points to the far end of its first edge in sweep order, if
    that end is older: the node joins there at its own age, and no pair is
    born. A node's edges to older nodes are those of its own time, swept by
    side: by block, and in a block as the db end first. One bit per side in
    a byte per node marks them, and the lowest set bit is the first. Pointer
    jumping gives every node its basin, the tree of a root that points
    nowhere. A second byte per node marks its edges to older nodes of other
    basins; unpacked in age order, it lists every cross-basin edge once, by
    time and then by side: the sweep order, without a sort. Only the first
    edge in sweep order between two basins can merge them, so
    :func:`_first_of_each_pair` keeps it and :func:`_elder_merges` sweeps
    just those edges, with basins numbered from the oldest. A killed root
    is never its merging edge's younger end, so no merge is a pair of zero
    persistence.

    Returns the age of every basin's root, oldest first, and the time and
    the killed basin of every merging edge, in sweep order.
    """
    size = age.size
    # side j of node x + i: the edge to y + i, for i < m (x, y, m, listed)
    sides = [(x, y, size - db if listed is None else listed.size, listed)
             for da, db, listed in blocks for x, y in ((db, da), (da, db))]
    # side j's far end as an offset from the node; index -1 (no older side) stays put
    step = np.array([y - x for x, y, _, _ in sides] + [0], dtype=np.int32)
    older = []
    pattern = np.zeros(size, dtype=np.uint8)  # bit j: side j leads to an older node
    for j, (x, y, m, listed) in enumerate(sides):
        older.append(age[y:y + m] < age[x:x + m])
        if listed is not None:
            older[j] &= listed
        pattern[x:x + m] |= older[j].view(np.uint8) << j
    # pointers, basin labels and the node of each age are int32 here: take
    # gathers at int32 indices without first casting them to intp
    ptr = np.arange(size, dtype=np.int32) + step[_FIRST_BIT[:1 << len(sides)]].take(pattern)
    up = ptr.take(ptr)
    while not np.array_equal(up, ptr):
        ptr, up = up, up.take(up)
    root_age = age.take(ptr)
    is_root = np.zeros(size, dtype=bool)
    is_root[root_age] = True
    roots = np.flatnonzero(is_root)
    basin = (np.cumsum(is_root, dtype=np.int32) - 1).take(root_age)
    crossed = np.zeros(size, dtype=np.uint8)  # bit j: side j leads to an older node of another basin
    for j, (x, y, m, _) in enumerate(sides):
        crossed[x:x + m] |= (older[j] & (basin[x:x + m] != basin[y:y + m])).view(np.uint8) << j
    node = np.empty(int(age.max()) + 1, dtype=np.int32)
    node[age] = np.arange(size, dtype=np.int32)  # the node of each age (of age 0, one that crosses nothing)
    # each cross-basin edge as age * 8 + side of its younger end, ascending
    key = np.flatnonzero(np.unpackbits(crossed.take(node), bitorder="little").view(bool))
    younger = node[key >> 3]
    a, b = basin.take(younger), basin.take(younger + step[key & 7])
    lo, hi = np.minimum(a, b, dtype=np.intp), np.maximum(a, b, dtype=np.intp)  # intp from here on
    at = _first_of_each_pair(lo, hi, roots.size)
    steps, dead = _elder_merges(roots.size, lo[at], hi[at])
    return roots, key[at[steps]] >> 3, dead


def _h0_union_find(rank: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """H0 pairs as an (n, 2) array from :func:`_ranked`'s output: ascending
    edge sweep over the vertices, whose ranks are their ages.

    A vertex's first edge in sweep order is to its first older neighbour
    (left, right, up, down), so the basins are those of that descent. Finite
    pairs come in the order of their merging edges, essential ones by birth
    rank.
    """
    w = rank.shape[1]
    row_edge = np.ones(rank.shape, dtype=bool)  # a horizontal edge leaves every vertex but a row's last
    row_edge[:, -1] = False
    # edges in the reduction route's order: horizontal, then vertical
    roots, death, dead = _basin_merges(rank.ravel(), ((0, 1, row_edge.ravel()[:-1]), (0, w, None)))
    alive = np.ones(roots.size, dtype=bool)
    alive[dead] = False
    finite = np.stack([vals[roots[dead]], vals[death]], 1)
    essential = np.stack([vals[roots[alive]], np.full(np.count_nonzero(alive), INF)], 1)
    return np.concatenate([finite, essential])


def _h1_union_find(rank: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """H1 pairs as an (n, 2) array from :func:`_ranked`'s output: H0 of the
    superlevel 8-connected graph with an outside node.

    By image duality (Garin et al. 2020, arXiv:2005.04597), H1 of the
    sublevel V-construction is H0 of the superlevel sets under
    8-connectivity, with one outside node joined to every boundary vertex.
    A loop is a superlevel component the outside has not reached. The
    vertices are swept from the top of the filtration: a vertex of rank r
    is aged n - r, and the outside (the padding) is aged 0. A merging edge's
    younger end is the loop's birth, and the killed basin's root, its
    highest vertex, is the loop's death. A unit square's diagonal is listed
    only when its ends are the square's two oldest corners: otherwise a
    path through a third corner joins them no later. Pairs come by
    ascending death rank.
    """
    n = rank.size
    grid = np.zeros((rank.shape[0] + 2, rank.shape[1] + 2), dtype=rank.dtype)
    grid[1:-1, 1:-1] = n - rank
    age = grid.ravel()
    w = grid.shape[1]
    # square p has corners p, p + 1, p + w and p + w + 1; a flat shift that
    # wraps past a row end joins two padding nodes, which merges nothing
    tl, tr, bl, br = age[:-w - 1], age[1:-w], age[w:-1], age[w + 1:]
    blocks = ((0, 1, None), (0, w, None),
              (0, w + 1, np.maximum(tl, br) < np.minimum(tr, bl)),
              (1, w, np.maximum(tr, bl) < np.minimum(tl, br)))
    roots, birth, dead = _basin_merges(age, blocks)
    by_death = np.argsort(-dead)
    return np.stack([vals[n - birth[by_death]], vals[n - roots[dead[by_death]]]], 1)


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
    if dim not in (0, 1):
        raise DimensionMismatch(f"dimension must be 0 or 1, got {dim}")
    return _sublevel_diagrams(values, (dim,))[0]


def _sublevel_diagrams(values: np.ndarray, dims: Sequence[int]) -> list[PersistenceDiagram]:
    """:func:`sublevel_persistence` of one checked grid in each of dims, its vertices ranked once."""
    ranked = _ranked(values)
    return [PersistenceDiagram(dim, (_h0_union_find, _h1_union_find)[dim](*ranked)) for dim in dims]


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
    birth, death = pd.array[:, 0], pd.array[:, 1]
    with np.errstate(over="ignore"):
        keep = np.isinf(death) | (death - birth >= min_persistence)
    return PersistenceDiagram(pd.dim, pd.array[keep])


# ---------------------------------------------------------------------------
# Bottleneck distance


def _hopcroft_karp(flat: Sequence[int], lo: list, hi: list, match_l: list, match_r: list) -> bool:
    """Augment a bipartite matching until it matches every row or is maximum.

    Row u's columns are ``flat[lo[u]:hi[u]]``. ``match_l[u]`` is row u's
    column and ``match_r[v]`` column v's row, -1 when free; both are updated
    in place, and they may start from any matching on these edges. A greedy
    pass gives each free row its first free column; BFS/DFS phases then
    augment along the shortest paths. Returns whether every row is matched.
    """
    n_left = len(match_l)
    for u in range(n_left):
        if match_l[u] == -1:
            for v in flat[lo[u]:hi[u]]:
                if match_r[v] == -1:
                    match_l[u] = v
                    match_r[v] = u
                    break
    inf = float("inf")
    dist = [0.0] * n_left

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = inf
        limit = inf  # the layer of the first free column found: no deeper row is expanded
        qi = 0
        while qi < len(queue) and dist[queue[qi]] < limit:
            u = queue[qi]
            qi += 1
            for v in flat[lo[u]:hi[u]]:
                w = match_r[v]
                if w == -1:
                    limit = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return limit < inf

    edge = [0] * n_left  # the next edge each row on the DFS stack tries

    def dfs(root: int) -> None:
        """Follow the layers down from a free row, with an explicit stack so
        that a path through every row cannot exhaust the recursion limit. A
        path that reaches a free column is flipped; a row whose edges all
        fail leaves the phase."""
        edge[root] = lo[root]
        stack = [root]
        while stack:
            u = stack[-1]
            e = edge[u]
            if e == hi[u]:
                dist[u] = inf
                stack.pop()
                continue
            edge[u] = e + 1
            w = match_r[flat[e]]
            if w == -1:
                for x in stack:  # each row on the path takes the column it went through
                    v = flat[edge[x] - 1]
                    match_l[x] = v
                    match_r[v] = x
                return
            if dist[w] == dist[u] + 1:
                edge[w] = lo[w]
                stack.append(w)

    while -1 in match_l and bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return -1 not in match_l


class _Cover:
    """One side's covering test: can every row forced at t (half above t) be
    matched to its own column at distance at most t?

    As t rises the forced rows only shrink and the edges only grow. So a test
    that passes holds at every higher level, and a matching made at a level
    that failed stays valid at every higher one: the search tests levels
    above the highest failure only, and each test augments that matching
    less the rows no longer forced. Rows come in descending half, so the
    forced rows are a prefix; row u's edges are ``start[u]:start[u + 1]``.

    The cover starts from the edges within lb of its blocks at hand, any
    subset of the side's edges: a matching of every forced row on them is
    one on the full graph, so the test passes. Its first failure drops them,
    takes every relevant edge of the forced rows from ``complete(k)``, in
    row order, and retries from the matching it made, valid on the full graph.
    """

    def __init__(self, blocks: list, lb: float, half: np.ndarray, n_cols: int, complete):
        rows, cols, dist = _joined(blocks)
        keep = np.flatnonzero(dist <= lb)
        keep = keep[np.argsort(rows[keep], kind="stable")]
        rows, self.cols, self.dist = rows[keep], cols[keep], dist[keep]
        # same-dtype queries spare a cast of the rows
        self.start = np.searchsorted(rows, np.arange(half.size + 1, dtype=rows.dtype))
        self.half, self.complete = half, complete  # complete is None once called
        self.passed = INF  # the lowest level that passed
        self.failed = [], [-1] * n_cols  # the matching at the highest level that failed

    def __call__(self, t: float) -> bool:
        if t >= self.passed:
            return True
        k = int(np.count_nonzero(self.half > t))
        match_l = self.failed[0][:k] + [-1] * (k - len(self.failed[0]))
        match_r = self.failed[1][:]
        for v in self.failed[0][k:]:
            if v != -1:
                match_r[v] = -1
        while True:
            within = np.flatnonzero(self.dist[:self.start[k]] <= t)
            ends = np.searchsorted(within, self.start[1:k + 1]).tolist()
            if _hopcroft_karp(memoryview(self.cols[within]), [0] + ends[:-1], ends, match_l, match_r):
                self.passed = t
                return True
            if self.complete is None:
                self.failed = match_l, match_r
                return False
            self.cols = self.dist = None  # freed before the full graph is built
            rows, self.cols, self.dist = self.complete(k)
            self.start = np.searchsorted(rows, np.arange(k + 1, dtype=rows.dtype))
            self.complete = rows = None  # no row id per edge outlives the starts


class _Strips:
    """The column side of the bottleneck, indexed for birth x death windows.

    The points are sorted by birth and cut into strips of _STRIP points;
    inside a strip they are ordered by death rank, under the key
    strip * (n + 1) + death rank. Both orders are stable, from
    :func:`.order.stable_argsort`. The points whose death rank lies in
    [lo, hi) are then one run of keys in each strip. The columns and deaths
    are also kept in birth order, for the lower bound's screen.
    """

    def __init__(self, q: np.ndarray):
        n = len(q)
        by_birth = stable_argsort(q[:, 0])
        by_death = stable_argsort(q[:, 1])
        key = np.arange(n) // _STRIP * (n + 1) + _inverse(by_death)[by_birth]
        order = np.argsort(key)  # the keys are distinct
        self.sorted_births, self.sorted_deaths = q[by_birth, 0], q[by_death, 1]
        self.key = key[order]
        self.cols = by_birth[order].astype(np.int32)
        self.births, self.deaths = q[self.cols, 0], q[self.cols, 1]  # in key order
        self.birth_cols, self.birth_deaths = by_birth.astype(np.int32), q[by_birth, 1]  # in birth order


@np.errstate(over="ignore")
def _near_edges(p: np.ndarray, half_p: np.ndarray, q: _Strips):
    """Rows (in order), columns and L-infinity distances d of the pairs with d < half_p[row].

    Candidates lie in the inclusive birth and death windows, which rounding
    never narrows: fl(|y - b|) < h means |y - b| < h exactly, so
    fl(b - h) <= y <= fl(b + h), and the same holds for deaths. A window end
    or a distance that overflows to inf keeps that true, and such a distance
    is never relevant. Each row scans the death window of every strip its
    birth window touches; the points of the end strips that lie outside the
    birth window have fl(|y - b|) >= h, and the test d < h drops them.
    """
    p_births, p_deaths = p[:, 0], p[:, 1]
    first = np.searchsorted(q.sorted_births, p_births - half_p, "left") // _STRIP
    stop = -(-np.searchsorted(q.sorted_births, p_births + half_p, "right") // _STRIP)
    n_strips = np.maximum(stop - first, 0)
    r_lo = np.searchsorted(q.sorted_deaths, p_deaths - half_p, "left")
    r_hi = np.searchsorted(q.sorted_deaths, p_deaths + half_p, "right")
    # one segment per (row, strip): the row's death window in that strip
    row = np.repeat(np.arange(len(p)), n_strips)
    strip = np.arange(row.size) + np.repeat(first - (np.cumsum(n_strips) - n_strips), n_strips)
    base = strip * (q.cols.size + 1)
    start = np.searchsorted(q.key, base + r_lo[row])
    count = np.searchsorted(q.key, base + r_hi[row]) - start
    i = np.repeat(row, count)
    k = np.arange(i.size) + np.repeat(start - (np.cumsum(count) - count), count)  # positions in key order
    d = np.abs(p_births[i] - q.births[k])
    np.maximum(d, np.abs(p_deaths[i] - q.deaths[k]), out=d)
    keep = np.flatnonzero(d < half_p[i])
    return i[keep], q.cols[k[keep]], d[keep]


@np.errstate(over="ignore")
def _screen(p: np.ndarray, q: _Strips) -> tuple[np.ndarray, np.ndarray]:
    """Columns and L-infinity distances, computed as :func:`_near_edges`
    computes them, of the _NEAR points of q nearest each row of p in birth
    order: two (rows, min(_NEAR, m)) arrays."""
    m = q.cols.size
    width = min(_NEAR, m)
    start = np.clip(np.searchsorted(q.sorted_births, p[:, 0]) - width // 2, 0, m - width)
    at = start[:, None] + np.arange(width)
    d = np.abs(p[:, :1] - q.sorted_births[at])
    np.maximum(d, np.abs(p[:, 1:] - q.birth_deaths[at]), out=d)
    return q.birth_cols[at], d


def _by_half(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points of an (n, 2) array in descending half-persistence, and their halves.

    A half is (death - birth) / 2, or death/2 - birth/2 where the difference
    overflows. The order is :func:`.order.stable_argsort` of the negated
    halves, so points with equal halves keep their order.
    """
    with np.errstate(over="ignore"):
        span = arr[:, 1] - arr[:, 0]
    half = np.where(np.isinf(span), arr[:, 1] / 2.0 - arr[:, 0] / 2.0, span / 2.0)
    order = stable_argsort(-half)
    return arr[order], half[order]


def _joined(blocks: list) -> tuple:
    """(rows, cols, d) blocks joined into one (rows, cols, d)."""
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _finite_bottleneck(a: np.ndarray, b: np.ndarray) -> float:
    if not len(a) and not len(b):
        return 0.0
    # A point forced at t (half above t) can use an edge only if d <= t < its
    # half, and no point on the diagonal is within its half: each side needs
    # just its rows' relevant edges (d below the row's half), and feasibility
    # changes only at a half or a relevant distance. Every point pays at least
    # its half or its nearest relevant distance, and the largest payment lb
    # bounds the optimum from below. A row whose half is at most lb cannot
    # raise lb, is never forced at t >= lb, and its distances lie below lb, so
    # no step needs its edges.
    sides = [_by_half(a), _by_half(b)]
    strips = [_Strips(arr) for arr, _ in sides]
    # each side's edges at hand: first its first block's (rows and all their
    # relevant edges), then every relevant edge of a visited later row and
    # the window points of a screened one
    empty = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))
    at_hand = [[empty], [empty]]
    lb = 0.0

    def visit(s: int, rows: np.ndarray) -> tuple:
        """Every relevant edge of these rows (ascending); their payments raise lb."""
        nonlocal lb
        (p, half), q = sides[s], strips[1 - s]
        i, cols, d = _near_edges(p[rows], half[rows], q)
        pay = half[rows]
        np.minimum.at(pay, i, d)
        lb = max(lb, pay.max())
        return rows[i].astype(np.int32), cols, d

    # (1) The lower bound. Each side's first block is visited, the side with
    # the larger head first. Every later row with half above lb is screened
    # on the _NEAR points of the other side nearest it in birth order: one
    # within lb means the row pays at most lb, and only the rows left are
    # visited. lb is the largest payment of all, as if every row were visited.
    heads = [half[0] if half.size else -INF for _, half in sides]
    seen = [0, 0]
    for s in sorted((0, 1), key=lambda s: -heads[s]):  # side 0 first on a tie
        seen[s] = int(np.count_nonzero(sides[s][1][:_ROW_BLOCK] > lb))
        if seen[s]:
            at_hand[s][0] = visit(s, np.arange(seen[s]))
    for s in (0, 1):
        (p, half), q, r0 = sides[s], strips[1 - s], seen[s]
        while r0 < half.size and half[r0] > lb:
            r1 = r0 + int(np.count_nonzero(half[r0:r0 + _ROW_BLOCK] > lb))
            cols, d = _screen(p[r0:r1], q)
            settled = (d <= lb).any(axis=1)
            rows = np.flatnonzero(settled).astype(np.int32) + r0
            at_hand[s].append((np.repeat(rows, cols.shape[1]), cols[settled].ravel(), d[settled].ravel()))
            if not settled.all():
                at_hand[s].append(visit(s, r0 + np.flatnonzero(~settled)))
            r0 = r1
    (_, half_a), (_, half_b) = sides
    # the all-diagonal matching pays the largest half, which caps the optimum
    cap = max(half_a[:1].tolist() + half_b[:1].tolist())
    if lb == cap:
        return float(lb)

    # (2) One cover a side, holding its edges at hand within lb. Its first
    # test, at lb, is a certificate: often lb is the optimum, and those edges
    # show it. A side that fails there keeps its first block's edges, visits
    # its other forced rows in order (their payments are at most lb, so lb
    # stays) and retries on every relevant edge. Both sides are tested, so a
    # side that has not passed at lb is complete.
    def complete(s: int, first_block: tuple, k: int) -> tuple:
        blocks = [tuple(e[:np.searchsorted(first_block[0], k)] for e in first_block)]
        blocks += [visit(s, np.arange(r, min(r + _ROW_BLOCK, k))) for r in range(seen[s], k, _ROW_BLOCK)]
        return _joined(blocks)

    covers = [_Cover(at_hand[s], lb, sides[s][1], sides[1 - s][1].size, partial(complete, s, at_hand[s][0]))
              for s in (0, 1)]
    del at_hand  # the covers keep their edges within lb and their first blocks only
    if all([cover(lb) for cover in covers]):
        return float(lb)

    def feasible(t: float) -> bool:
        # Mendelsohn-Dulmage: covers of each side's forced points merge into one matching
        return covers[0](t) and covers[1](t)

    # a cover that was never completed holds distances within lb only: no level
    levels = np.concatenate((half_a, half_b, covers[0].dist, covers[1].dist))
    levels.sort()  # in place: np.unique would sort a copy
    levels = levels[np.searchsorted(levels, lb, "right"):]  # the last is the cap
    levels = levels[np.append(True, levels[1:] != levels[:-1])]
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two same-dimension diagrams.

    Finite pairs match each other or their diagonal projection; essential
    pairs match by birth difference. Every point pays at least its half or
    its nearest relevant distance (below its half), and the largest payment
    bounds the distance from below. A few near points settle most rows'
    payments; only the others have every relevant edge built. Each side's
    cover holds its edges in row order with row starts, as the matching
    reads them, and starts from the edges at hand: its first test, at the
    bound, often shows the bound is the distance. A side that fails there
    builds the relevant edges of every row whose half lies above the bound,
    once, and a binary search runs over the exact candidate costs, each test
    augmenting the matching of the highest level that failed.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"diagram dimensions differ: {a.dim} vs {b.dim}")
    pa, pb = a.array, b.array
    fin_a, fin_b = np.isfinite(pa[:, 1]), np.isfinite(pb[:, 1])
    ess_a, ess_b = np.sort(pa[~fin_a, 0]), np.sort(pb[~fin_b, 0])
    if ess_a.size != ess_b.size:
        raise EssentialCountMismatch(
            f"{ess_a.size} vs {ess_b.size} essential classes (distance is infinite)"
        )
    with np.errstate(over="ignore"):
        ess_cost = float(np.abs(ess_a - ess_b).max(initial=0.0))
    return max(ess_cost, _finite_bottleneck(pa[fin_a], pb[fin_b]))


# ---------------------------------------------------------------------------
# Diagram CSV (header "dim,birth,death"; 17 significant digits; "inf" deaths)


def diagrams_to_csv(diagrams: Iterable[PersistenceDiagram]) -> str:
    lines = ["dim,birth,death"]
    for pd in diagrams:
        for b, d in pd.pairs:
            lines.append(f"{pd.dim},{b:.17g},{d:.17g}")
    return "\n".join(lines) + "\n"


def write_diagram_csv(path, diagrams: Iterable[PersistenceDiagram]) -> None:
    Path(path).write_text(diagrams_to_csv(diagrams))


def read_diagram_csv(path) -> dict[int, PersistenceDiagram]:
    """Parse a diagram CSV into one diagram per dimension present."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"diagram CSV {path} is not text: {exc}") from None
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
            dim, birth, death = int(row[0]), float(row[1]), float(row[2])
        except ValueError:
            raise FormatError(f"bad diagram CSV row: {row}") from None
        if not math.isfinite(birth):
            raise FormatError(f"bad diagram CSV row: {row} (birth is not finite)")
        by_dim.setdefault(dim, []).append((birth, death))
    return {dim: PersistenceDiagram(dim, tuple(pairs)) for dim, pairs in by_dim.items()}
