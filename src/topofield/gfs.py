"""GFS ("gridded field stack") binary serialization.

Layout, little-endian:

    bytes 0-3   magic "GFS1"
    uint32      n_fields
    uint32      height
    uint32      width
    uint32      n_channels (1 or 4; order [SF, T, V, C] when 4)
    int64  * n_fields                          dates, days since 1970-01-01 UTC
    float32 * n_fields*n_channels*height*width values, row-major, channel-major
                                               within a date

Values are stored as float32; in-memory arithmetic stays float64.
"""

from __future__ import annotations

import datetime as dt
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, FormatError, OutOfRange, TruncatedPayload
from .field import FieldStack

MAGIC = b"GFS1"
_EPOCH = dt.date(1970, 1, 1).toordinal()
_HEADER = struct.Struct("<4sIIII")


def date_to_days(date: dt.date) -> int:
    return date.toordinal() - _EPOCH


def days_to_date(days: int) -> dt.date:
    try:
        return dt.date.fromordinal(int(days) + _EPOCH)
    except (OverflowError, ValueError):  # outside date.min..date.max
        raise FormatError(f"day count {days} lies outside the calendar") from None


def _parts(stack: FieldStack) -> tuple:
    """The header, the dates and the ``<f4`` values of a stack, in file order.

    Raises :class:`OutOfRange`, naming the first date, when a value lies
    outside the float32 range: the cast would store it as an infinity, which
    no reader accepts.
    """
    n, c, h, w = stack.values.shape
    days = np.array([date_to_days(d) for d in stack.dates], dtype="<i8")
    with np.errstate(over="ignore"):
        values = stack.values.astype("<f4", order="C")
    # per-date extremes find an overflow without a temporary the size of the values
    over = np.isinf(values.max(axis=(1, 2, 3), initial=0.0)) | np.isinf(values.min(axis=(1, 2, 3), initial=0.0))
    if over.any():
        date = stack.dates[int(np.argmax(over))]
        raise OutOfRange(f"values on {date.isoformat()} lie outside the float32 range of a GFS file")
    return _HEADER.pack(MAGIC, n, h, w, c), days, values


def write_stack(stack: FieldStack, path) -> None:
    parts = _parts(stack)
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)


def stack_to_bytes(stack: FieldStack) -> bytes:
    return b"".join(_parts(stack))


def read_stack(path) -> FieldStack:
    return stack_from_bytes(Path(path).read_bytes())


def stack_from_bytes(raw: bytes) -> FieldStack:
    if len(raw) < _HEADER.size:
        if raw[: len(MAGIC)] != MAGIC[: len(raw)]:
            raise BadMagic("not a GFS payload")
        raise TruncatedPayload(f"header needs {_HEADER.size} bytes, got {len(raw)}")
    magic, n, h, w, c = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if c not in (1, 4):
        raise FormatError(f"channel count must be 1 or 4, got {c}")
    if h < 2 or w < 2:
        raise FormatError(f"grid {h}x{w} is smaller than 2x2")
    dates_bytes = 8 * n
    values_count = n * c * h * w
    expected = _HEADER.size + dates_bytes + 4 * values_count
    if len(raw) < expected:
        raise TruncatedPayload(f"payload needs {expected} bytes, got {len(raw)}")
    if len(raw) > expected:
        raise FormatError(f"{len(raw) - expected} trailing bytes after payload")
    days = np.frombuffer(raw, dtype="<i8", count=n, offset=_HEADER.size)
    dates = tuple(days_to_date(d) for d in days)
    values = np.frombuffer(raw, dtype="<f4", count=values_count, offset=_HEADER.size + dates_bytes)
    with np.errstate(invalid="ignore"):  # a signalling NaN is quieted here and rejected as NaN
        values = values.reshape(n, c, h, w).astype(np.float64)
    return FieldStack._adopt(dates, values)
