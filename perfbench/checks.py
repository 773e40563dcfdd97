"""Output checks that share no code with the library they check.

Every check raises :class:`CheckFailed` with a reason. Binary outputs are
compared byte for byte against bytes this module computes with numpy, and
text outputs are decoded as strict UTF-8 before parsing, so flipping any
single byte of an output makes its check fail.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import struct

import numpy as np

EPOCH = dt.date(1970, 1, 1).toordinal()
HEADER = struct.Struct("<4sIIII")
T_CODES = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)  # regular, maximum, minimum, saddle
RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# GFS stacks and text files


def read_gfs(raw: bytes) -> tuple[list[dt.date], np.ndarray]:
    """Parse a GFS payload into (dates, float32 values of shape (n, c, h, w))."""
    require(len(raw) >= HEADER.size, "GFS payload shorter than its header")
    magic, n, h, w, c = HEADER.unpack_from(raw, 0)
    require(magic == b"GFS1", f"bad GFS magic {magic!r}")
    require(c in (1, 4), f"bad GFS channel count {c}")
    size = HEADER.size + 8 * n + 4 * n * c * h * w
    require(len(raw) == size, f"GFS payload is {len(raw)} bytes, header implies {size}")
    days = np.frombuffer(raw, "<i8", n, HEADER.size)
    values = np.frombuffer(raw, "<f4", n * c * h * w, HEADER.size + 8 * n).reshape(n, c, h, w)
    return [dt.date.fromordinal(int(d) + EPOCH) for d in days], values


def gfs_bytes(dates, values) -> bytes:
    """The GFS encoding of float values of shape (n, c, h, w)."""
    n, c, h, w = values.shape
    days = np.array([d.toordinal() - EPOCH for d in dates], dtype="<i8")
    return HEADER.pack(b"GFS1", n, h, w, c) + days.tobytes() + np.asarray(values, dtype="<f4").tobytes()


def text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"output is not UTF-8 text: {exc}") from None


def same_bytes(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise CheckFailed(f"{what}: {len(got)} bytes differ from the {len(want)} expected, first at byte {at}")


def json_object(raw: bytes) -> dict:
    try:
        obj = json.loads(text(raw))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {exc}") from None
    require(isinstance(obj, dict), "stdout JSON is not an object")
    return obj


def csv_rows(raw: bytes, header: str) -> list[list[str]]:
    lines = text(raw).split("\n")
    require(lines[-1] == "", "CSV does not end with a newline")
    require(lines[0] == header, f"CSV header {lines[0]!r} is not {header!r}")
    return [line.split(",") for line in lines[1:-1]]


def number(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise CheckFailed(f"{s!r} is not a number") from None


# ---------------------------------------------------------------------------
# Normalization and percentiles


def linear_percentile(pooled: np.ndarray, q: float) -> float:
    """Quantile q at fractional index (n-1)q of the sorted data."""
    pos = (pooled.size - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, pooled.size - 1)
    s = np.partition(pooled, [lo, hi])
    return float(s[lo] + (pos - lo) * (s[hi] - s[lo]))


def normalized(values: np.ndarray, p1: float, p99: float) -> np.ndarray:
    return np.clip((np.asarray(values, dtype=np.float64) - p1) / (p99 - p1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Critical points, contours and H0 births, all under the (value, index) order


def ranks(field: np.ndarray) -> np.ndarray:
    """Position of every cell in the ascending order, ties by row-major index."""
    flat = field.ravel()
    order = np.argsort(flat, kind="stable")
    r = np.empty(flat.size, dtype=np.int64)
    r[order] = np.arange(flat.size)
    return r.reshape(field.shape)


def local_minima_count(field: np.ndarray) -> int:
    """Cells lower than each of their 4 neighbours (boundary cells included)."""
    r = ranks(field)
    is_min = np.ones(r.shape, dtype=bool)
    is_min[1:, :] &= r[1:, :] < r[:-1, :]
    is_min[:-1, :] &= r[:-1, :] < r[1:, :]
    is_min[:, 1:] &= r[:, 1:] < r[:, :-1]
    is_min[:, :-1] &= r[:, :-1] < r[:, 1:]
    return int(is_min.sum())


def structural_channels(field: np.ndarray) -> np.ndarray:
    """The [SF, T, V, C] channels of one normalized field, shape (4, h, w)."""
    h, w = field.shape
    r = ranks(field)
    center = r[1:-1, 1:-1]
    above = np.stack([r[1 + dr:h - 1 + dr, 1 + dc:w - 1 + dc] > center for dr, dc in RING])
    changes = (above != np.roll(above, -1, axis=0)).sum(axis=0)
    n_above = above.sum(axis=0)
    t = np.zeros((h, w))
    inner = t[1:-1, 1:-1]
    inner[(changes == 0) & (n_above == 0)] = T_CODES[1]
    inner[(changes == 0) & (n_above == 8)] = T_CODES[2]
    inner[changes >= 4] = T_CODES[3]
    v = np.where(t != 0.0, field, 0.0)
    # an edge crosses a saddle's level when a saddle rank lies strictly
    # between the ranks of its two endpoints
    levels = np.sort(r[t == T_CODES[3]])
    c = np.zeros((h, w), dtype=bool)
    for a, b, mark_a, mark_b in (
        (r[:, :-1], r[:, 1:], (slice(None), slice(0, -1)), (slice(None), slice(1, None))),
        (r[:-1, :], r[1:, :], (slice(0, -1), slice(None)), (slice(1, None), slice(None))),
    ):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        crossed = np.searchsorted(levels, hi, "left") > np.searchsorted(levels, lo, "right")
        c[mark_a] |= crossed
        c[mark_b] |= crossed
    return np.stack([field, t, v, c.astype(np.float64)])


def saddle_count(channels: np.ndarray) -> int:
    return int((channels[..., 1, :, :] == np.float32(T_CODES[3])).sum())


# ---------------------------------------------------------------------------
# Persistence diagrams


def diagram_csv(raw: bytes) -> dict[int, list[tuple[float, float]]]:
    out: dict[int, list[tuple[float, float]]] = {0: [], 1: []}
    for row in csv_rows(raw, "dim,birth,death"):
        require(len(row) == 3 and row[0] in ("0", "1"), f"bad diagram row {row}")
        birth, death = number(row[1]), number(row[2])
        require(death >= birth, f"death {death} precedes birth {birth}")
        out[int(row[0])].append((birth, death))
    return out


def max_half_persistence(pairs) -> float:
    return max(((d - b) / 2.0 for b, d in pairs if math.isfinite(d)), default=0.0)


def bottleneck_within_bound(distance: float, pairs_a, pairs_b) -> None:
    """A bottleneck distance never exceeds matching everything to the diagonal."""
    bound = max(max_half_persistence(pairs_a), max_half_persistence(pairs_b))
    require(0.0 <= distance <= bound, f"bottleneck distance {distance!r} outside [0, {bound!r}]")


def h0_births_are_minima(pairs, field: np.ndarray, what: str) -> None:
    n_min = local_minima_count(field)
    require(len(pairs) == n_min, f"{what}: {len(pairs)} H0 pairs but {n_min} 4-neighbour local minima")


# ---------------------------------------------------------------------------
# Verification records


def in_unit_interval(x: float, what: str) -> None:
    require(0.0 <= x <= 1.0, f"{what} = {x!r} outside [0, 1]")


def rmse_kelvin(pred_norm: np.ndarray, truth_norm: np.ndarray, p1: float, p99: float) -> float:
    span = p99 - p1
    diff = (pred_norm.astype(np.float64) * span + p1) - (truth_norm.astype(np.float64) * span + p1)
    return float(np.sqrt(np.mean(diff * diff)))


def close(got: float, want: float, rel: float, what: str) -> None:
    require(abs(got - want) <= rel * max(abs(want), 1e-300), f"{what} = {got!r}, expected {want!r}")


def eval_records(raw: bytes, dates, pred, truth, p1, p99, tau: int, overlap: bool) -> list[list[str]]:
    """Records CSV of `evaluate`: one row per date, metrics in range, RMSE recomputed."""
    rows = csv_rows(raw, "target_date,tau,season,rmse,psnr,ssim,acc,overlap")
    require(len(rows) == len(dates), f"{len(rows)} records for {len(dates)} dates")
    for row, d, p, t in zip(rows, dates, pred, truth):
        require(len(row) == 8 and row[0] == d.isoformat() and row[1] == str(tau), f"bad record {row}")
        close(number(row[3]), rmse_kelvin(p, t, p1, p99), 1e-9, f"rmse on {row[0]}")
        require(number(row[5]) <= 1.0 + 1e-12, f"ssim {row[5]} above 1")
        require(-1.0 - 1e-9 <= number(row[6]) <= 1.0 + 1e-9, f"acc {row[6]} outside [-1, 1]")
        if overlap:
            in_unit_interval(number(row[7]), f"overlap on {row[0]}")
        else:
            require(row[7] == "", f"unexpected overlap on {row[0]}")
    return rows


def summary_rows(raw: bytes, n_dates: int) -> None:
    rows = csv_rows(raw, "season,n,mean_rmse,std_rmse,mean_acc,overlap")
    require(rows and sum(int(r[1]) for r in rows) == n_dates, "summary does not cover every date")
    for r in rows:
        in_unit_interval(number(r[5]), f"{r[0]} season overlap")


# ---------------------------------------------------------------------------
# Sample manifests


def manifest(raw: bytes, dates_available, expect=None) -> list[str]:
    """Every line is {t, tau, same day 3..1 years back, t-3tau, t-2tau, t-tau}."""
    lines = text(raw).split("\n")
    require(lines[-1] == "", "manifest does not end with a newline")
    have = set(dates_available)
    for line in lines[:-1]:
        parts = line.split(",")
        require(len(parts) == 8, f"bad manifest line {line!r}")
        t = dt.date.fromisoformat(parts[0])
        tau = int(parts[1])
        require(30 <= tau <= 90, f"lead time {tau} outside [30, 90]")
        inter = [t.replace(year=t.year - k, day=min(t.day, 28) if (t.month, t.day) == (2, 29) else t.day)
                 for k in (3, 2, 1)]
        intra = [t - dt.timedelta(days=k * tau) for k in (3, 2, 1)]
        want = [t.isoformat(), str(tau)] + [d.isoformat() for d in inter + intra]
        require(parts == want, f"manifest line {line!r} is not {','.join(want)!r}")
        require(all(d in have for d in inter + intra + [t]), f"manifest line {line!r} names a missing date")
    if expect is not None:
        require(lines[:-1] == expect, f"manifest {lines[:-1]} is not {expect}")
    return lines[:-1]
