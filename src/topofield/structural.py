"""Structural channels [SF, T, V, C]: critical points and saddle-level contours.

Every decision compares the integer vertex ranks of :mod:`.order`, so all
comparisons are strict. Interior cells are classified on their 8-neighbour
ring; a grid edge is on a saddle's contour when the saddle's rank lies
strictly between its endpoints' ranks. One private kernel maps an
``(n, h, w)`` block of fields to ``(n, 4, h, w)``; the public functions are
views over it, and each date's channels depend on that date only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GridTooSmall, OutOfRange
from .field import FieldStack, ScalarField, as_values, map_chunks
from .order import vertex_ranks

# Stored T-channel codes, scaled into [0, 1] like every other channel.
T_REGULAR = 0.0
T_MAXIMUM = 1.0 / 3.0
T_MINIMUM = 2.0 / 3.0
T_SADDLE = 1.0

# Ring walk order: N, NE, E, SE, S, SW, W, NW as (drow, dcol).
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


class CriticalKind(enum.Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    SADDLE = "saddle"


@dataclass(frozen=True)
class CriticalPoint:
    row: int
    col: int
    kind: CriticalKind
    value: float


def _check_codes(t: np.ndarray, c: np.ndarray) -> None:
    """Reject T values off the code set, then C values off {0, 1}, in grids of any stack shape."""
    # tolerance admits float32 storage of the thirds
    codes = np.array([T_REGULAR, T_MAXIMUM, T_MINIMUM, T_SADDLE])
    dist = np.abs(t[..., None] - codes).min(axis=-1)
    if dist.max() > 1e-6:
        raise FormatError("T channel contains values outside the code set")
    if not set(np.unique(c)) <= {0.0, 1.0}:
        raise FormatError("C channel must be a {0,1} mask")


@dataclass(frozen=True)
class MultiChannelField:
    """The 4-channel structural tensor for one date: the kernel's read-only (4, h, w) block [SF, T, V, C]."""

    block: np.ndarray

    def to_array(self) -> np.ndarray:
        return self.block


def _ring_table() -> np.ndarray:
    """T code of each ring pattern: bit i of the pattern is set when ring cell i is above the centre.

    Walking the ring cyclically: 0 changes with an all-lower ring is a
    maximum, 0 with an all-higher ring a minimum, and 4 or more changes a
    saddle (multi-saddles included). 2 changes is regular.
    """
    above = (np.arange(256)[:, None] >> np.arange(8)) & 1
    changes = (above != np.roll(above, -1, axis=1)).sum(axis=1)
    n_above = above.sum(axis=1)
    table = np.zeros(256)
    table[(changes == 0) & (n_above == 0)] = T_MAXIMUM
    table[(changes == 0) & (n_above == 8)] = T_MINIMUM
    table[changes >= 4] = T_SADDLE
    return table


_RING_T = _ring_table()


def _type_map(rank: np.ndarray) -> np.ndarray:
    """T codes of an (n, h, w) rank block: each interior cell's 8-ring pattern looked up in ``_RING_T``.

    Boundary cells are never classified.
    """
    n, h, w = rank.shape
    if h < 3 or w < 3:
        raise GridTooSmall(f"classification needs at least 3x3, got {h}x{w}")
    center = rank[:, 1:-1, 1:-1]
    pattern = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dr, dc) in enumerate(_RING):
        pattern |= (rank[:, 1 + dr : h - 1 + dr, 1 + dc : w - 1 + dc] > center).view(np.uint8) << bit
    t = np.zeros(rank.shape)
    t[:, 1:-1, 1:-1] = _RING_T[pattern]
    return t


def _contour_mask(keys: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Cells at either end of a grid edge whose endpoint keys strictly straddle a level.

    ``keys`` are distinct integers in ``[0, keys.size)`` over the last two
    axes; ``levels`` are some of them, in any order, repeats allowed. A
    counting table gives ``below[r]``, the number of levels under ``r``. An
    edge with keys a < b straddles a level iff ``below[b] > below[a + 1]``,
    so each cell reads ``under = below[key]`` and ``upto = below[key + 1]``,
    and an edge is crossed iff one end's ``under`` exceeds the other's ``upto``.
    """
    below = np.zeros(keys.size + 1, dtype=np.intp)
    below[levels + 1] = 1
    np.cumsum(below, out=below)
    under, upto = below[keys], below[keys + 1]
    mask = np.zeros(keys.shape, dtype=bool)
    # horizontal edges, then vertical ones through transposed views
    for u, v, m in ((under, upto, mask), (under.swapaxes(-1, -2), upto.swapaxes(-1, -2), mask.swapaxes(-1, -2))):
        crossed = (u[..., 1:] > v[..., :-1]) | (u[..., :-1] > v[..., 1:])
        m[..., :-1] |= crossed
        m[..., 1:] |= crossed
    return mask


def _channels(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The kernel: write [SF, T, V, C] of an (n, h, w) block of fields into ``out``, shape (n, 4, h, w)."""
    n, h, w = block.shape
    rank = vertex_ranks(block)[0].reshape(block.shape)
    t = _type_map(rank)
    # offset each field's ranks so one counting table serves the block
    keys = rank + (np.arange(n) * (h * w))[:, None, None]
    c = _contour_mask(keys, keys.take(np.flatnonzero(t == T_SADDLE)))
    out[:, 0] = block
    out[:, 1] = t
    # V keeps a critical cell's value bit for bit and writes +0.0 elsewhere:
    # an AND with all-ones or all-zero words, which unlike a masked copy does
    # not branch on a mask that is true at about 64 % of cells
    np.bitwise_and(block.view(np.int64), -(t != T_REGULAR).astype(np.int64), out=out[:, 2].view(np.int64))
    out[:, 3] = c
    return out


def _check_normalized(values: np.ndarray) -> None:
    if values.size and (values.min() < -1e-9 or values.max() > 1.0 + 1e-9):
        raise OutOfRange("structural channels are built on [0, 1]-normalized fields")


def classify_critical_points(field) -> list[CriticalPoint]:
    """Critical points of one field in row-major order, read from its T map."""
    values = as_values(field)
    t = _type_map(vertex_ranks(values)[0].reshape((1,) + values.shape))[0]
    kinds = dict(zip((T_MAXIMUM, T_MINIMUM, T_SADDLE), CriticalKind))
    rows, cols = np.nonzero(t)
    return [CriticalPoint(int(r), int(c), kinds[t[r, c]], float(values[r, c])) for r, c in zip(rows, cols)]


def extract_saddle_contours(field, saddles: list[CriticalPoint]) -> ScalarField:
    """Binary mask of both endpoints of every grid edge crossing a saddle's level."""
    values = as_values(field)
    h, w = values.shape
    for s in saddles:
        if s.kind is not CriticalKind.SADDLE:
            raise FormatError(f"non-saddle point ({s.row}, {s.col}) passed to contour extraction")
        if not (0 <= s.row < h and 0 <= s.col < w):
            raise FormatError(f"saddle ({s.row}, {s.col}) lies outside the {h}x{w} grid")
    rank = vertex_ranks(values)[0].reshape(h, w)
    levels = np.array([rank[s.row, s.col] for s in saddles], dtype=rank.dtype)
    return ScalarField(_contour_mask(rank, levels).astype(np.float64))


def build_structural_channels(field: ScalarField) -> MultiChannelField:
    """Assemble the 4-channel representation of one normalized field."""
    values = as_values(field)
    _check_normalized(values)
    block = _channels(values[None], np.empty((1, 4) + values.shape))[0]
    block.setflags(write=False)
    return MultiChannelField(block)


def build_structural_stack(stack: FieldStack, threads: int | None = None) -> FieldStack:
    """Expand a 1-channel normalized stack into the 4-channel [SF, T, V, C] stack.

    The stack is checked once, then mapped through the kernel in chunks
    (:func:`.field.map_chunks`), on a thread pool when ``threads > 1``.
    """
    if stack.channels != 1:
        raise FormatError(f"expected a 1-channel stack, got {stack.channels}")
    values = stack.values[:, 0]
    _check_normalized(values)
    n, h, w = values.shape
    out = np.empty((n, 4, h, w))

    def fill(chunk: slice) -> None:
        _channels(values[chunk], out[chunk])

    map_chunks(fill, n, h * w, threads)
    return FieldStack._adopt(stack.dates, out)
