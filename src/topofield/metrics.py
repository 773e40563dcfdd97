"""Forecast-verification metrics and seasonal / error-bin stratification.

RMSE and the anomaly correlation are computed on physical (kelvin) fields;
PSNR and SSIM operate in normalized [0, 1] space. Each metric is one kernel
over an ``(n, h, w)`` stack that gives one value per date; the per-field
functions are its n = 1 views. Distribution agreement uses Gaussian kernel
density estimates with a Silverman-style bandwidth.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyBin,
    EmptySeason,
    FormatError,
    GridTooSmall,
    IdenticalFields,
    ShapeMismatch,
    ZeroVariance,
)
from .field import as_values, denormalized, map_chunks

SEASONS = ("DJF", "MAM", "JJA", "SON")
_SEASON_OF_MONTH = {
    12: "DJF", 1: "DJF", 2: "DJF",
    3: "MAM", 4: "MAM", 5: "MAM",
    6: "JJA", 7: "JJA", 8: "JJA",
    9: "SON", 10: "SON", 11: "SON",
}

KDE_GRID_POINTS = 2048
KDE_MARGIN_BANDWIDTHS = 3.0
# Cells of one (grid points x samples) block of the exact KDE: 512 KB per
# buffer, which stays in cache; 2**20-cell blocks ran 1.5-3x slower.
_KDE_BLOCK_CELLS = 1 << 16
# np.exp leaves its SIMD fast path where its argument falls below about
# -707.7 (17-210 ns an element against 1.2 ns), and it returns exactly 0.0
# below -745.13. So the cells of a block whose argument is below
# _KDE_SLOW_EXP are evaluated apart, and those below _KDE_EXP_ZERO are set
# to 0.0 without a call.
_KDE_SLOW_EXP = -707.0
_KDE_EXP_ZERO = -750.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01) ** 2  # (K1 * L)^2 with L = 1
SSIM_C2 = (0.03) ** 2


def season_of(date: dt.date) -> str:
    """Meteorological season of a date (Dec-Feb -> DJF, and so on)."""
    return _SEASON_OF_MONTH[date.month]


@dataclass(frozen=True)
class EvalRecord:
    """Per-(date, lead time) metric bundle."""

    target_date: dt.date
    tau: int
    rmse: float
    psnr: float
    ssim: float
    acc: float
    season: str
    overlap: float | None = None

    def __post_init__(self):
        if self.tau < 0:
            raise FormatError(f"lead time tau must be nonnegative, got {self.tau}")
        if self.season != season_of(self.target_date):
            raise FormatError(
                f"season {self.season} inconsistent with {self.target_date} "
                f"({season_of(self.target_date)})"
            )
        if not -1.0 - 1e-9 <= self.acc <= 1.0 + 1e-9:
            raise FormatError(f"correlation {self.acc} outside [-1, 1]")


@dataclass(frozen=True)
class BinSpec:
    """Error-bin edges in kelvin; default four bins 3-, 3-4, 4-5, 5+."""

    edges: tuple[float, ...] = (3.0, 4.0, 5.0)

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise FormatError("bin edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @property
    def labels(self) -> tuple[str, ...]:
        first = f"{_trim(self.edges[0])}-"
        mids = tuple(f"{_trim(a)}-{_trim(b)}" for a, b in zip(self.edges, self.edges[1:]))
        last = f"{_trim(self.edges[-1])}+"
        return (first,) + mids + (last,)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Bin index per value; intervals are left-closed."""
        return np.searchsorted(np.asarray(self.edges), x, side="right")


def _trim(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class StratRow:
    """Per-bin median fusion weights for one season."""

    season: str | None
    medians: tuple[float | None, ...]
    counts: tuple[int, ...]
    delta: float


def rmse(pred, truth) -> float:
    p, t = _pair(pred, truth)
    return float(np.sqrt(_mse(p[None], t[None]))[0])


def psnr(pred, truth) -> float:
    """10*log10(1/MSE) for unit dynamic range; identical fields are an error."""
    p, t = _pair(pred, truth)
    mse = _mse(p[None], t[None])
    if mse[0] == 0.0:
        raise IdenticalFields("PSNR is infinite for identical fields")
    return float(_psnr(mse)[0])


def acc(pred, truth, clim) -> float:
    """Spatial anomaly correlation, pooling all grid cells."""
    p, t = _pair(pred, truth)
    c = as_values(clim)
    _check_clim(c[None], p[None])
    r = float(_acc(p[None], t[None], c[None])[0])
    if math.isnan(r):
        raise ZeroVariance("an anomaly field is constant")
    return r


def ssim(a, b) -> float:
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), reflect-padded.

    Stabilizers follow the standard formulation for a unit dynamic range:
    C1 = 0.01^2, C2 = 0.03^2.
    """
    av, bv = _pair(a, b)
    _check_ssim_grid(av[None])
    return float(_ssim(av[None], bv[None])[0])


def _pair(a, b):
    av, bv = as_values(a), as_values(b)
    if av.shape != bv.shape:
        raise ShapeMismatch(f"shapes {av.shape} and {bv.shape} differ")
    return av, bv


# ---------------------------------------------------------------------------
# Per-date kernels over (n, h, w) stacks


def _per_date(x: np.ndarray) -> np.ndarray:
    return x.reshape(len(x), -1)


def _mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _per_date((a - b) ** 2).mean(axis=1)


def _psnr(mse: np.ndarray) -> np.ndarray:
    """10*log10(1/MSE); infinite where the fields are identical."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(1.0 / mse)


def _acc(p: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Anomaly correlation per date; NaN where an anomaly field is constant."""
    pa = _per_date(p - c)
    ta = _per_date(t - c)
    pa = pa - pa.mean(axis=1, keepdims=True)
    ta = ta - ta.mean(axis=1, keepdims=True)
    denom = np.sqrt((pa**2).sum(axis=1) * (ta**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip((pa * ta).sum(axis=1) / denom, -1.0, 1.0)
    return np.where(denom == 0.0, np.nan, r)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """The normalized 2D Gaussian window as a ``(size, size)`` array."""
    half = size // 2
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x**2) / (2.0 * sigma**2))
    g = g / g.sum()
    return np.outer(g, g)


_SSIM_KERNEL = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)


def _local_mean(x: np.ndarray) -> np.ndarray:
    """Each date of ``x`` correlated with the window, reflect-padded at the edges.

    Byte-identical to ``scipy.ndimage.correlate(x, kernel[None], mode="reflect")``:
    ``symmetric`` padding is ndimage's ``reflect``, and the taps are summed
    from zero in row-major kernel order, as ndimage's loop sums them.
    """
    half = SSIM_WINDOW // 2
    h, w = x.shape[1:]
    padded = np.pad(x, ((0, 0), (half, half), (half, half)), mode="symmetric")
    acc = np.zeros(x.shape)
    for (i, j), weight in np.ndenumerate(_SSIM_KERNEL):
        acc += padded[:, i:i + h, j:j + w] * weight
    return acc


def _ssim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu_a = _local_mean(a)
    mu_b = _local_mean(b)
    var_a = _local_mean(a * a) - mu_a * mu_a
    var_b = _local_mean(b * b) - mu_b * mu_b
    cov = _local_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return _per_date(num / den).mean(axis=1)


def _check_ssim_grid(a: np.ndarray) -> None:
    h, w = a.shape[1:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise GridTooSmall(f"SSIM needs at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {h}x{w}")


def _check_clim(c: np.ndarray, p: np.ndarray) -> None:
    if c.shape[1:] != p.shape[1:]:
        raise ShapeMismatch(f"climatology shape {c.shape[1:]} differs from {p.shape[1:]}")


def _check_stacks(pred, truth, clim, dates, clim_index) -> np.ndarray:
    """The shape checks of :func:`evaluate_stack`; returns each date's climatology index."""
    if pred.ndim != 3 or truth.ndim != 3 or clim.ndim != 3:
        raise FormatError(f"expected (n, h, w) stacks, got {pred.shape}, {truth.shape}, {clim.shape}")
    if pred.shape[1:] != truth.shape[1:]:
        raise ShapeMismatch(f"shapes {pred.shape[1:]} and {truth.shape[1:]} differ")
    _check_ssim_grid(pred)
    _check_clim(clim, pred)
    n = len(pred)
    if len(truth) != n or len(dates) != n:
        raise ShapeMismatch(f"{n} predictions, {len(truth)} truth fields and {len(dates)} dates")
    if clim_index is None:
        if len(clim) != n:
            raise ShapeMismatch(f"{len(clim)} climatology fields for {n} dates")
        return np.arange(n)
    ci = np.asarray(clim_index, dtype=np.intp)
    if ci.shape != (n,) or (n and (ci.min() < 0 or ci.max() >= len(clim))):
        raise ShapeMismatch(f"clim_index must hold {n} indices into {len(clim)} climatology fields")
    return ci


def evaluate_stack(pred: np.ndarray, truth: np.ndarray, clim: np.ndarray, stats, dates, tau: int,
                   with_overlap: bool = False, threads: int | None = None,
                   clim_index=None) -> list[EvalRecord]:
    """Evaluate normalized ``(n, h, w)`` predictions against truth and climatology.

    Date ``i`` is scored against ``clim[clim_index[i]]`` (default
    ``clim[i]``), so one climatology map serves every date uncopied. RMSE
    and ACC are computed in kelvin (``stats``); PSNR and SSIM stay in
    normalized space, and an identical prediction reports infinite PSNR.
    The dates run in chunks (:func:`.field.map_chunks`), on a thread pool
    when ``threads > 1``; each chunk is denormalized by itself, so the
    working memory does not grow with n.

    Errors, first to last: stacks whose shapes or lengths disagree, or
    grids below the SSIM window; the earliest date with a field outside
    [0, 1] (pred, truth, clim on one date); the earliest date whose KDE
    sample is degenerate or whose anomaly is constant (the KDE first on
    one date).
    """
    ci = _check_stacks(pred, truth, clim, dates, clim_index)
    n, h, w = pred.shape

    def metrics(s: slice) -> np.ndarray:
        p, t = pred[s], truth[s]
        pk, tk, ck = denormalized(np.stack([p, t, clim[ci[s]]], axis=1), stats).swapaxes(0, 1)
        return np.stack([_psnr(_mse(p, t)), np.sqrt(_mse(pk, tk)), _ssim(p, t), _acc(pk, tk, ck)])

    parts = map_chunks(metrics, n, h * w, threads)
    psnr_n, rmse_k, ssim_n, acc_k = np.concatenate([np.empty((4, 0))] + parts, axis=1)
    constant = np.flatnonzero(np.isnan(acc_k))
    stop = constant[0] + 1 if constant.size else n
    overlaps = [None] * n
    if with_overlap:
        def overlap(s: slice) -> list[float]:
            return [kde_overlap(denormalized(pred[i], stats), denormalized(truth[i], stats))
                    for i in range(s.start, s.stop)]

        # each of a date's two KDEs evaluates KDE_GRID_POINTS x h*w cells
        parts = map_chunks(overlap, stop, 2 * KDE_GRID_POINTS * h * w, threads)
        overlaps[:stop] = [x for part in parts for x in part]
    if constant.size:
        raise ZeroVariance("an anomaly field is constant")
    return [
        EvalRecord(date, tau, float(rmse_k[i]), float(psnr_n[i]), float(ssim_n[i]), float(acc_k[i]),
                   season_of(date), overlaps[i])
        for i, date in enumerate(dates)
    ]


# ---------------------------------------------------------------------------
# Kernel density overlap


def _bandwidth(samples: np.ndarray) -> float:
    """Silverman-style rule: 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the sd-only rule when the IQR collapses to zero; a zero
    or overflowing sd is degenerate, and so is a bandwidth that is not a
    positive finite number.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(samples.std())
        if sd == 0.0:
            raise DegenerateSample("sample standard deviation is zero")
        if not math.isfinite(sd):
            raise DegenerateSample("sample standard deviation overflows")
        q75, q25 = np.percentile(samples, [75.0, 25.0])
        iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * spread * samples.size ** (-0.2)
    if not 0.0 < h < math.inf:
        raise DegenerateSample(f"bandwidth {h!r} is not a positive finite number")
    return h


def _kde(samples: np.ndarray, h: float, grid: np.ndarray) -> np.ndarray:
    """Exact Gaussian KDE on ``grid``, in blocks of grid points under a fixed cell budget.

    A block holds at least one grid point. Each point's sum runs over all
    samples in one row, so the blocking does not change any density. The
    block is evaluated in two buffers allocated once per call, in the order
    of the one-shot formula ``exp((-0.5 * z) * z)`` with ``z = (g - s) / h``.
    Cells whose argument would take ``np.exp`` off its fast path (see
    ``_KDE_SLOW_EXP``) are set to 0 for the block's ``exp`` and evaluated by
    a second, contiguous ``exp`` call, so every value is still the one
    ``np.exp`` gives.
    """
    rows = max(1, _KDE_BLOCK_CELLS // samples.size)
    # one allocation for both: at 768 samples a call took 47 minor page faults
    # this way and 290 as two allocations of 512 KB
    z, arg = np.empty((2, min(rows, grid.size), samples.size))
    slow = np.empty(z.shape, dtype=bool)
    sums = np.empty(grid.size)
    # a distance that overflows to inf bandwidths gives an argument of -inf,
    # whose term is 0.0
    with np.errstate(over="ignore"):
        for i in range(0, grid.size, rows):
            g = grid[i : i + rows]
            zb, ab = z[: g.size], arg[: g.size]
            np.subtract(g[:, None], samples, out=zb)
            np.divide(zb, h, out=zb)
            np.multiply(-0.5, zb, out=ab)
            np.multiply(ab, zb, out=ab)
            # ascending indices of the slow cells, so that the gathers and
            # scatters walk memory in order
            far = np.flatnonzero(np.less(ab, _KDE_SLOW_EXP, out=slow[: g.size]))
            flat = ab.reshape(-1)
            far_arg = flat[far]
            flat[far] = 0.0
            np.exp(ab, out=ab)
            flat[far] = 0.0
            keep = far_arg >= _KDE_EXP_ZERO
            flat[far[keep]] = np.exp(far_arg[keep])
            ab.sum(axis=1, out=sums[i : i + g.size])
    sums /= samples.size * h * math.sqrt(2.0 * math.pi)
    return sums


def _as_samples(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DegenerateSample("empty sample set")
    if not np.all(np.isfinite(arr)):
        raise FormatError("samples contain non-finite values")
    return arr


def _kde_pair(pred_samples, truth_samples, side: str | None = None):
    """Both KDEs on KDE_GRID_POINTS points: the grid and the two densities.

    The grid spans the pooled range plus a margin of three of the larger
    bandwidth, or on one ``side`` of the truth's 5th/95th percentile only.
    The ends cannot overflow: a finite sd is below 1.4e154, so three
    bandwidths are far below the spacing of floats near the largest one.
    """
    p = _as_samples(pred_samples)
    q = _as_samples(truth_samples)
    hp, hq = _bandwidth(p), _bandwidth(q)
    h = max(hp, hq)
    lo = min(p.min(), q.min()) - KDE_MARGIN_BANDWIDTHS * h
    hi = max(p.max(), q.max()) + KDE_MARGIN_BANDWIDTHS * h
    if side == "below_p5":
        hi = float(np.percentile(q, 5.0))
    elif side == "above_p95":
        lo = float(np.percentile(q, 95.0))
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    return grid, _kde(p, hp, grid), _kde(q, hq, grid)


def kde_overlap(pred_samples, truth_samples) -> float:
    """Integral of min(p, q) between the two Gaussian KDEs.

    Trapezoidal quadrature on 2048 points spanning the pooled range plus a
    three-bandwidth margin.
    """
    grid, dens_p, dens_q = _kde_pair(pred_samples, truth_samples)
    return float(np.trapezoid(np.minimum(dens_p, dens_q), grid))


def tail_overlap(pred_samples, truth_samples, side: str) -> float:
    """Tail-restricted overlap, normalized by the truth's tail mass.

    Thresholds come from the truth sample's 5th/95th percentiles; the
    statistic is the integral of min(p, q) over the tail divided by the
    integral of the truth density q over the same region.
    """
    if side not in ("below_p5", "above_p95"):
        raise FormatError(f"side must be 'below_p5' or 'above_p95', got {side!r}")
    grid, dens_p, dens_q = _kde_pair(pred_samples, truth_samples, side)
    tail_mass = float(np.trapezoid(dens_q, grid))
    if tail_mass == 0.0:
        raise DegenerateSample("truth tail carries no density mass")
    return float(np.trapezoid(np.minimum(dens_p, dens_q), grid) / tail_mass)


# ---------------------------------------------------------------------------
# Stratification


def seasonal_summary(records) -> dict[str, dict[str, float]]:
    """Per-season mean/std RMSE, mean ACC, and mean overlap where present.

    Standard deviations are population deviations. Seasons are never
    pooled; a season absent from the records is absent from the result.
    """
    buckets: dict[str, list[EvalRecord]] = {}
    for r in records:
        buckets.setdefault(r.season, []).append(r)
    if not buckets:
        raise EmptySeason("no records")
    out: dict[str, dict[str, float]] = {}
    for season in SEASONS:
        if season not in buckets:
            continue
        rs = buckets[season]
        rmses = np.array([r.rmse for r in rs])
        overlaps = [r.overlap for r in rs if r.overlap is not None]
        out[season] = {
            "n": len(rs),
            "mean_rmse": float(rmses.mean()),
            "std_rmse": float(rmses.std()),
            "mean_acc": float(np.mean([r.acc for r in rs])),
            "mean_overlap": float(np.mean(overlaps)) if overlaps else math.nan,
        }
    return out


def _lower_median(values: np.ndarray) -> float:
    """Median with the lower of the two middle elements for even counts."""
    s = np.sort(values)
    return float(s[(s.size - 1) // 2])


def lambda_bin_analysis(
    lambda_field, rmse_field, bins: BinSpec = BinSpec(), season: str | None = None
) -> StratRow:
    """Median fusion weight per error bin, plus the end-bin separation.

    Cells are assigned to left-closed bins by their error value; medians
    use the lower-median convention. The separation is
    median(last bin) - median(first bin) and needs both end bins populated.
    """
    lam, err = _pair(lambda_field, rmse_field)
    idx = bins.assign(err.ravel())
    lam_flat = lam.ravel()
    n_bins = len(bins.edges) + 1
    medians: list[float | None] = []
    counts: list[int] = []
    for b in range(n_bins):
        sel = lam_flat[idx == b]
        counts.append(int(sel.size))
        medians.append(_lower_median(sel) if sel.size else None)
    labels = bins.labels
    empty_ends = [labels[i] for i in (0, n_bins - 1) if counts[i] == 0]
    if empty_ends:
        raise EmptyBin(empty_ends)
    delta = medians[-1] - medians[0]
    return StratRow(season, tuple(medians), tuple(counts), float(delta))


def lead_time_curves(records) -> dict[tuple[str, int], float]:
    """Mean RMSE keyed by (season, lead time)."""
    sums: dict[tuple[str, int], float] = {}
    counts: dict[tuple[str, int], int] = {}
    for r in records:
        key = (r.season, r.tau)
        sums[key] = sums.get(key, 0.0) + r.rmse
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def make_eval_record(
    pred_norm,
    truth_norm,
    clim_norm,
    stats,
    target_date: dt.date,
    tau: int,
    with_overlap: bool = False,
) -> EvalRecord:
    """Evaluate one normalized prediction: the one-date view of :func:`evaluate_stack`."""
    fields = [as_values(x)[None] for x in (pred_norm, truth_norm, clim_norm)]
    return evaluate_stack(*fields, stats, (target_date,), tau, with_overlap)[0]
