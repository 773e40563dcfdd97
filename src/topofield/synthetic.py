"""Deterministic synthetic data for desk-scale testing.

Gaussian-mixture fields give grids with known critical-point structure.
The climate generator produces multi-year daily stacks mixing a seasonal
cycle, per-year smooth anomalies, and AR(1) weather noise; every random
draw is keyed by (seed, stream, index) so regeneration is order-independent
and bit-reproducible.
"""

from __future__ import annotations

import datetime as dt
import math
import numbers
from dataclasses import MISSING, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError
from .field import _CHUNK_CELLS, FieldStack, ScalarField, _correlate_axis, as_values

if TYPE_CHECKING:
    from .fusion import LambdaMap

_STREAM_PHASE = 1
_STREAM_YEAR = 2
_STREAM_WEATHER = 3

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class BumpSpec:
    """One Gaussian bump: center (row, col), amplitude, width sigma > 0."""

    row: float
    col: float
    amplitude: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise FormatError("bump sigma must be positive")


@dataclass(frozen=True)
class ClimateSpec:
    """Parameters of the synthetic daily climate."""

    n_years: int
    height: int
    width: int
    annual_amp: float = 1.0
    interannual_amp: float = 0.0
    weather_amp: float = 0.0
    ar1_coeff: float = 0.0
    seed: int = 0
    start_year: int = 2010

    def __post_init__(self):
        for name in ("n_years", "height", "width", "seed", "start_year"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise FormatError(f"climate-spec {name} must be an integer, got {value!r}")
        for name in ("annual_amp", "interannual_amp", "weather_amp", "ar1_coeff"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise FormatError(f"climate-spec {name} must be a finite number, got {value!r}")
        if self.n_years < 4:
            raise FormatError("need at least 4 years (3 aligned inputs + 1 target year)")
        if self.height < 2 or self.width < 2:
            raise FormatError(f"grid {self.height}x{self.width} is smaller than 2x2")
        if self.seed < 0:
            raise FormatError(f"seed must be nonnegative, got {self.seed}")
        if not dt.MINYEAR <= self.start_year <= dt.MAXYEAR - self.n_years + 1:
            last = self.start_year + self.n_years - 1
            raise FormatError(f"years {self.start_year}-{last} fall outside {dt.MINYEAR}-{dt.MAXYEAR}")
        if min(self.annual_amp, self.interannual_amp, self.weather_amp) < 0:
            raise FormatError("amplitudes must be nonnegative")
        if not 0.0 <= self.ar1_coeff < 1.0:
            raise FormatError("AR(1) coefficient must lie in [0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "ClimateSpec":
        if not isinstance(d, dict):
            raise FormatError(f"climate spec must be a JSON object, got {d!r}")
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise FormatError(f"unknown climate-spec keys: {sorted(unknown)}")
        missing = [k for k, f in fields.items() if f.default is MISSING and k not in d]
        if missing:
            raise FormatError(f"missing climate-spec keys: {missing}")
        return cls(**d)


def gaussian_mixture_field(dims: tuple[int, int], bumps) -> ScalarField:
    """Sum of isotropic Gaussian bumps on a dims = (height, width) grid."""
    h, w = dims
    if h < 3 or w < 3:
        raise FormatError(f"gaussian mixture needs at least 3x3, got {h}x{w}")
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    out = np.zeros((h, w))
    for b in bumps:
        d2 = (rows - b.row) ** 2 + (cols - b.col) ** 2
        out += b.amplitude * np.exp(-d2 / (2.0 * b.sigma**2))
    return ScalarField(out)


def _calendar_doy(day: dt.date) -> int:
    """Day-of-year of the calendar day in a fixed 365-day year.

    Feb 29 shares Feb 28's value, so the seasonal cycle is a pure function
    of (month, day) and never drifts across leap years.
    """
    ref_day = 28 if (day.month, day.day) == (2, 29) else day.day
    return dt.date(2001, day.month, ref_day).timetuple().tm_yday


# generate_climate filters its days in chunks of about _CHUNK_CELLS cells.
# Where a field's cells x kernel taps fall below this constant, a chunk goes
# through _numpy_gaussian_filter and scipy.ndimage is never imported (about
# 0.3 s in a fresh process); at and above it, ndimage, about twice as fast
# per cell-tap, filters. The constant is where the numpy filter's extra cost
# over a 15-year (5,479-day) climate equals that import. Both routes give the
# same bytes.
_NUMPY_FILTER_MAX_WORK = 50_000


def _gaussian_weights(sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter1d``'s weights at ``truncate=4``, computed and
    reversed as it computes and reverses them."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[::-1]


def _numpy_gaussian_filter(fields: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(mode="reflect")`` over the last two axes of one
    field or a stack of fields, to the byte, as a C-contiguous array."""
    weights = _gaussian_weights(sigma)
    for axis in (-2, -1):
        fields = _correlate_axis(fields, weights, axis)
    return np.ascontiguousarray(fields)


def _smooth_fields(keys, shape: tuple[int, int]) -> np.ndarray:
    """One standardized smooth random field per key (seed, stream, index...),
    as an ``(len(keys), *shape)`` array."""
    white = np.empty((len(keys), *shape))
    for key, field in zip(keys, white):
        np.random.default_rng(key).standard_normal(out=field)
    sigma = max(1.0, min(shape) / 6.0)
    if shape[0] * shape[1] * len(_gaussian_weights(sigma)) < _NUMPY_FILTER_MAX_WORK:
        smooth = _numpy_gaussian_filter(white, sigma)
    else:
        from scipy import ndimage  # imported on first use: only large grids need it

        smooth = ndimage.gaussian_filter(white, sigma=(0.0, sigma, sigma), mode="reflect")
    sd = smooth.std(axis=(1, 2), keepdims=True)
    centred = smooth - smooth.mean(axis=(1, 2), keepdims=True)
    return np.divide(centred, sd, out=np.zeros_like(centred), where=sd != 0.0)


def _smooth_field(key: tuple, shape: tuple[int, int]) -> np.ndarray:
    """Standardized smooth random field keyed by (seed, stream, index...)."""
    return _smooth_fields([key], shape)[0]


def generate_climate(spec: ClimateSpec) -> FieldStack:
    """Daily fields: seasonal cycle + per-year anomaly + AR(1) weather.

    T(d) = annual_amp * cos(2*pi*doy/365.25 + phase(x, y))
         + interannual_amp * Y(year, x, y)
         + weather_amp * W(d, x, y)

    with Y a per-year smooth field and W a stationary unit-variance AR(1)
    process driven by smooth spatial innovations.
    """
    shape = (spec.height, spec.width)
    phase = 0.5 * _smooth_field((spec.seed, _STREAM_PHASE), shape)
    years = range(spec.start_year, spec.start_year + spec.n_years)
    year_fields = _smooth_fields([(spec.seed, _STREAM_YEAR, year) for year in years], shape)
    first = dt.date(spec.start_year, 1, 1)
    last = dt.date(spec.start_year + spec.n_years - 1, 12, 31)
    dates = tuple(first + dt.timedelta(days=k) for k in range((last - first).days + 1))
    angles = np.array([2.0 * np.pi * _calendar_doy(day) / DAYS_PER_YEAR for day in dates])
    year_index = np.array([day.year - spec.start_year for day in dates])

    values = np.empty((len(dates), 1, *shape))
    rho = spec.ar1_coeff
    innov_scale = np.sqrt(1.0 - rho * rho)
    weather = None
    per_chunk = max(1, _CHUNK_CELLS // (spec.height * spec.width))
    for start in range(0, len(dates), per_chunk):
        stop = min(start + per_chunk, len(dates))
        innovations = _smooth_fields([(spec.seed, _STREAM_WEATHER, k) for k in range(start, stop)], shape)
        for field in innovations:  # the AR(1) weather, in place of each day's innovation
            if weather is not None:
                field *= innov_scale
                field += rho * weather
            weather = field
        seasonal = spec.annual_amp * np.cos(angles[start:stop, None, None] + phase)
        anomaly = spec.interannual_amp * year_fields[year_index[start:stop]]
        values[start:stop, 0] = seasonal + anomaly + spec.weather_amp * innovations
    return FieldStack._adopt(dates, values)


def oracle_lambda(inter_pred, intra_pred, truth) -> LambdaMap:
    """Per-pixel best blend weight against a known truth.

    lambda* = clamp((truth - intra) / (inter - intra), 0, 1) where the two
    branches differ by more than 1e-12; 0.5 where they coincide.
    """
    from .fusion import LambdaMap  # imported on first use: `synth` never needs fusion

    a = as_values(inter_pred)
    b = as_values(intra_pred)
    t = as_values(truth)
    if not (a.shape == b.shape == t.shape):
        raise FormatError("oracle lambda needs three same-shape fields")
    denom = a - b
    safe = np.abs(denom) > 1e-12
    lam = np.full(a.shape, 0.5)
    lam[safe] = np.clip((t[safe] - b[safe]) / denom[safe], 0.0, 1.0)
    return LambdaMap.of(lam)
