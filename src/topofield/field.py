"""Core gridded-field types and percentile normalization.

A :class:`ScalarField` is an immutable 2D grid of finite float64 values
(temperature in kelvin, or a dimensionless derived channel in [0, 1]).
A :class:`FieldStack` is a date-indexed sequence of 1- or 4-channel grids.
Normalization maps training-percentile bounds onto [0, 1] with clipping.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateStats, EmptyTrainingSet, FormatError, OutOfRange

# Tolerances fixed by contract.
DEGENERATE_SPAN = 1e-12
DENORM_SLACK = 1e-9


def as_values(field_like) -> np.ndarray:
    """Coerce a ScalarField or array-like to a 2D float64 ndarray."""
    if isinstance(field_like, ScalarField):
        return field_like.values
    arr = np.asarray(field_like, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError(f"expected a 2D grid, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("grid contains non-finite values")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it is read-only C-contiguous float64 owning its data,
    as :meth:`FieldStack._adopt` leaves it; else a read-only copy."""
    if arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


# Cells per kernel call on the stack paths (at least one field per call): it
# bounds a kernel's working arrays whatever the stack length.
_CHUNK_CELLS = 1 << 16


def usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity, else the host's count, at least 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_chunks(fn, n: int, cells: int, threads: int | None = None) -> list:
    """``fn`` of consecutive slices of ``range(n)``, results in slice order.

    A slice holds about ``_CHUNK_CELLS`` cells at ``cells`` per item, and at
    least one item. The slices run on a pool of ``threads`` threads, at most
    one per usable CPU, when that is more than one.
    """
    per_chunk = max(1, _CHUNK_CELLS // max(1, cells))
    chunks = [slice(i, min(i + per_chunk, n)) for i in range(0, n, per_chunk)]
    workers = min(threads or 1, usable_cpus())
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: one-thread runs never need it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, chunks))
    return list(map(fn, chunks))


def _correlate_axis(values: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """``ndimage.correlate1d(values, weights, axis, mode="reflect")`` for a
    symmetric odd-length ``weights``, to the byte.

    ndimage sums a symmetric kernel as the centre tap, then each pair of
    mirrored taps from the farthest in; this sums in that order. The axis is
    moved to the front of a padded copy so that each tap is one contiguous pass.
    """
    r = len(weights) // 2
    lead = np.moveaxis(values, axis, 0)
    n = lead.shape[0]
    # np.pad's "symmetric" is ndimage's "reflect", also where r exceeds n
    padded = np.pad(lead, [(r, r)] + [(0, 0)] * (lead.ndim - 1), mode="symmetric")
    out = padded[r:r + n] * weights[r]
    pair = np.empty_like(out)
    for k in range(r, 0, -1):
        np.add(padded[r - k:r - k + n], padded[r + k:r + k + n], out=pair)
        pair *= weights[r - k]
        out += pair
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class ScalarField:
    """A 2D gridded scalar with finite float64 values, at least 2x2."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise FormatError(f"ScalarField must be 2D, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise FormatError(f"ScalarField must be at least 2x2, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("ScalarField contains NaN or Inf")
        object.__setattr__(self, "values", _frozen(arr))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class FieldStack:
    """Daily grids stacked over strictly increasing dates.

    ``values`` has shape (n_dates, n_channels, height, width); n_channels is
    1 for raw/normalized temperature or 4 for structural stacks [SF, T, V, C].
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 4:
            raise FormatError(f"FieldStack values must be 4D (n, c, h, w), got {arr.shape}")
        n, c, h, w = arr.shape
        if c not in (1, 4):
            raise FormatError(f"FieldStack channel count must be 1 or 4, got {c}")
        dates = tuple(self.dates)
        if len(dates) != n:
            raise FormatError(f"{len(dates)} dates for {n} fields")
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise FormatError("dates must be strictly increasing")
        if not np.all(np.isfinite(arr)):
            raise FormatError("FieldStack contains NaN or Inf")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", _frozen(arr))

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[2]

    @property
    def width(self) -> int:
        return self.values.shape[3]

    @classmethod
    def _adopt(cls, dates, values: np.ndarray) -> "FieldStack":
        """A stack over ``values`` itself: a fresh float64 array that no one else holds.

        The library's stack producers hand their output over this way, so
        the stack does not copy it a second time.
        """
        values.setflags(write=False)
        return cls(dates, values)

    def index_of(self, date: dt.date) -> int | None:
        return self._date_index.get(date)

    @cached_property
    def _date_index(self) -> dict:
        return {d: i for i, d in enumerate(self.dates)}

    def field(self, i: int) -> ScalarField:
        return ScalarField(self.values[i, 0])


@dataclass(frozen=True)
class NormStats:
    """Percentile bounds of the training data used for [0, 1] scaling."""

    p1: float
    p99: float

    def __post_init__(self):
        if not (np.isfinite(self.p1) and np.isfinite(self.p99)):
            raise DegenerateStats("non-finite percentile bounds")
        span = float(self.p99) - float(self.p1)
        if span < DEGENERATE_SPAN:
            raise DegenerateStats(f"p99 - p1 = {span!r} is below {DEGENERATE_SPAN}")
        if span == math.inf:
            raise DegenerateStats(f"p99 - p1 overflows for p1 = {self.p1!r}, p99 = {self.p99!r}")

    @property
    def span(self) -> float:
        return self.p99 - self.p1


@dataclass(frozen=True)
class SplitSpec:
    """Year-disjoint train/test split."""

    train_years: frozenset[int]
    test_years: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        train = frozenset(int(y) for y in self.train_years)
        test = frozenset(int(y) for y in self.test_years)
        overlap = train & test
        if overlap:
            raise FormatError(f"train/test years overlap: {sorted(overlap)}")
        object.__setattr__(self, "train_years", train)
        object.__setattr__(self, "test_years", test)


def compute_norm_stats(stack: FieldStack, split: SplitSpec) -> NormStats:
    """1st/99th percentiles of all values from training-year dates.

    Percentiles use the linear-interpolation convention: for sorted values
    x_0..x_{n-1}, quantile q sits at fractional index (n-1)*q.
    Test-year fields are never read.
    """
    train_idx = [i for i, d in enumerate(stack.dates) if d.year in split.train_years]
    if not train_idx:
        raise EmptyTrainingSet("no dates fall in the training years")
    pooled = stack.values[train_idx].ravel()
    p1, p99 = np.percentile(pooled, [1.0, 99.0])
    return NormStats(float(p1), float(p99))


def normalized(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Normalized values of kelvin grids, one or many: shape (..., h, w).

    [p1, p99] maps affinely onto [0, 1]; values outside it are clipped.
    """
    out = values - stats.p1
    out /= stats.span
    return np.clip(out, 0.0, 1.0, out=out)


def denormalized(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Kelvin values of normalized grids, one or many: shape (..., h, w).

    Every grid must lie in [0, 1] up to DENORM_SLACK; the first one that
    does not, in C order over the leading axes, is the one reported. A NaN
    grid does not lie in [0, 1].
    """
    lo = values.min(axis=(-2, -1)).ravel()
    hi = values.max(axis=(-2, -1)).ravel()
    bad = np.flatnonzero(~((lo >= -DENORM_SLACK) & (hi <= 1.0 + DENORM_SLACK)))
    if bad.size:
        i = bad[0]
        raise OutOfRange(f"values in [{float(lo[i])}, {float(hi[i])}] exceed [0, 1] by more than {DENORM_SLACK}")
    return values * stats.span + stats.p1


def denormalize(field: ScalarField, stats: NormStats) -> ScalarField:
    """Kelvin values of one normalized field, for reporting physical-unit errors."""
    return ScalarField(denormalized(field.values, stats))


def normalize_stack(stack: FieldStack, stats: NormStats) -> FieldStack:
    """Normalize every channel of every date in a stack."""
    return FieldStack._adopt(stack.dates, normalized(stack.values, stats))


def denormalize_stack(stack: FieldStack, stats: NormStats) -> FieldStack:
    """Denormalize every channel of every date in a stack."""
    return FieldStack._adopt(stack.dates, denormalized(stack.values, stats))
