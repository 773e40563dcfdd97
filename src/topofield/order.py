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


def vertex_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every cell of a grid, or of each grid along leading batch axes.

    Returns ``(rank, order)`` over the flattened cells of each grid, both of
    shape ``values.shape[:-2] + (h * w,)``: ``rank[..., i]`` is the position
    of cell i in the ascending perturbed order, and ``order[..., r]`` is the
    flat cell index at position r (so ``order`` inverts ``rank``).

    The values are sorted with the default (unstable) argsort; then each run
    of equal sorted values gets its cell indices back in ascending order, by
    one sort of (run start, index) keys over the tied positions only. That
    is the order of a stable sort, -0.0 and 0.0 counting as equal.
    """
    cells = values.shape[-2] * values.shape[-1]
    if not cells:
        raise GridTooSmall(f"a {values.shape[-2]}x{values.shape[-1]} grid has no cells to rank")
    flat = values.reshape(-1, cells)
    order = np.argsort(flat, axis=-1)
    sorted_values = np.take_along_axis(flat, order, axis=-1)
    tie = sorted_values[:, 1:] == sorted_values[:, :-1]
    in_run = np.zeros(flat.shape, dtype=bool)
    in_run[:, 1:] = tie
    in_run[:, :-1] |= tie
    starts = in_run.copy()
    starts[:, 1:] &= ~tie
    pos = np.flatnonzero(in_run)
    # each tied position's run start, a flat position below rows * cells
    run = np.maximum.accumulate(np.where(starts.ravel()[pos], pos, 0))
    flat_order = order.reshape(-1)
    keys = run * cells + flat_order[pos]
    keys.sort()
    flat_order[pos] = keys % cells
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(cells), axis=-1)
    shape = values.shape[:-2] + (cells,)
    return rank.reshape(shape), order.reshape(shape)
