"""The one total order on grid cells: vertex ranks.

Ties between equal field values are broken by row-major linear index
(symbolic perturbation), so cells compare as the pair (value, index). A
cell's rank is its position in that ascending order. Critical-point
classification, saddle contours and persistence all compare these integer
ranks, so they see one strictly monotone field.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooSmall


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")`` for values without NaN.

    Each row along the last axis is sorted with the default (unstable)
    argsort, several times faster than the stable one on floats; then each
    run of equal sorted values gets its indices back in ascending order, by
    one sort of (run start, index) keys over the tied positions of all rows.
    -0.0 and 0.0 count as equal, as they do in a stable sort.
    """
    order = np.argsort(values, axis=-1)
    if not order.size:
        return order
    n = values.shape[-1]
    flat_order = order.reshape(-1)
    sorted_values = values.reshape(-1)[flat_order + np.arange(0, order.size, n).repeat(n)]
    tie = sorted_values[1:] == sorted_values[:-1]
    tie[n - 1::n] = False  # a row's last value and the next row's first
    in_run = np.zeros(order.size, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    starts = in_run.copy()
    starts[1:] &= ~tie
    pos = np.flatnonzero(in_run)
    run = np.maximum.accumulate(np.where(starts[pos], pos, 0))  # each tied position's run start
    keys = run * n + flat_order[pos]
    keys.sort()
    flat_order[pos] = keys % n
    return order


def vertex_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every cell of a grid, or of each grid along leading batch axes.

    Returns ``(rank, order)`` over the flattened cells of each grid, both of
    shape ``values.shape[:-2] + (h * w,)``: ``rank[..., i]`` is the position
    of cell i in the ascending perturbed order, and ``order[..., r]`` is the
    flat cell index at position r (so ``order`` inverts ``rank``). ``order``
    is :func:`stable_argsort` of the grids' flattened values.
    """
    cells = values.shape[-2] * values.shape[-1]
    if not cells:
        raise GridTooSmall(f"a {values.shape[-2]}x{values.shape[-1]} grid has no cells to rank")
    order = stable_argsort(values.reshape(-1, cells))
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(cells), axis=-1)
    shape = values.shape[:-2] + (cells,)
    return rank.reshape(shape), order.reshape(shape)
