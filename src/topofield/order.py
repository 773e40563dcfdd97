"""The one total order on grid cells: vertex ranks.

Ties between equal field values are broken by row-major linear index
(symbolic perturbation), so cells compare as the pair (value, index). A
cell's rank is its position in that ascending order. Critical-point
classification, saddle contours and persistence all compare these integer
ranks, so they see one strictly monotone field.
"""

from __future__ import annotations

import numpy as np


def vertex_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every cell of a grid, or of each grid along leading batch axes.

    Returns ``(rank, order)`` over the flattened cells of each grid, both of
    shape ``values.shape[:-2] + (h * w,)``: ``rank[..., i]`` is the position
    of cell i in the ascending perturbed order, and ``order[..., r]`` is the
    flat cell index at position r (so ``order`` inverts ``rank``). A stable
    sort keeps equal values in index order.
    """
    flat = values.reshape(values.shape[:-2] + (values.shape[-2] * values.shape[-1],))
    order = np.argsort(flat, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(flat.shape[-1]), axis=-1)
    return rank, order
