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

import numpy as np

from .errors import FormatError
from .field import FieldStack, ScalarField, as_values
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


def _smooth_field(key: tuple, shape: tuple[int, int]) -> np.ndarray:
    """Standardized smooth random field keyed by (seed, stream, index...)."""
    from scipy import ndimage  # imported on first use: most commands never filter

    rng = np.random.default_rng(key)
    white = rng.standard_normal(shape)
    smooth = ndimage.gaussian_filter(white, sigma=max(1.0, min(shape) / 6.0), mode="reflect")
    sd = smooth.std()
    if sd == 0.0:
        return np.zeros(shape)
    return (smooth - smooth.mean()) / sd


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
    year_fields = {
        year: _smooth_field((spec.seed, _STREAM_YEAR, year), shape)
        for year in range(spec.start_year, spec.start_year + spec.n_years)
    }
    first = dt.date(spec.start_year, 1, 1)
    last = dt.date(spec.start_year + spec.n_years - 1, 12, 31)
    n_days = (last - first).days + 1

    dates = []
    values = np.empty((n_days, 1, spec.height, spec.width))
    rho = spec.ar1_coeff
    innov_scale = np.sqrt(1.0 - rho * rho)
    weather = np.zeros(shape)
    for k in range(n_days):
        day = first + dt.timedelta(days=k)
        innovation = _smooth_field((spec.seed, _STREAM_WEATHER, k), shape)
        weather = innovation if k == 0 else rho * weather + innov_scale * innovation
        doy = _calendar_doy(day)
        seasonal = spec.annual_amp * np.cos(2.0 * np.pi * doy / DAYS_PER_YEAR + phase)
        field = seasonal + spec.interannual_amp * year_fields[day.year] + spec.weather_amp * weather
        dates.append(day)
        values[k, 0] = field
    return FieldStack._adopt(tuple(dates), values)


def oracle_lambda(inter_pred, intra_pred, truth) -> LambdaMap:
    """Per-pixel best blend weight against a known truth.

    lambda* = clamp((truth - intra) / (inter - intra), 0, 1) where the two
    branches differ by more than 1e-12; 0.5 where they coincide.
    """
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
