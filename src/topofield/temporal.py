"""Dual-trend sample construction and the day-of-year climatology baseline.

Each target date gets two input groups: a calendar-aligned stack from the
three prior years (same month/day; Feb 29 falls back to Feb 28) and a
recent stack at the lead-time scale, {t-3*tau, t-2*tau, t-tau}. Split
validation enforces the no-leakage rules; the climatology is built from
training years only.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTrainingSet,
    FormatError,
    InsufficientHistory,
    MissingDate,
    MissingDayOfYear,
)
from .field import FieldStack, ScalarField, SplitSpec
from .structural import _check_codes

TAU_MIN = 30
TAU_MAX = 90


@dataclass(frozen=True)
class LeadTime:
    """Forecast lead time in days, within the subseasonal window [30, 90]."""

    tau: int

    def __post_init__(self):
        tau = int(self.tau)
        if not TAU_MIN <= tau <= TAU_MAX:
            raise FormatError(f"lead time must be in [{TAU_MIN}, {TAU_MAX}] days, got {tau}")
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class DualSample:
    """One (target date, lead time) sample with both input groups.

    FormatError unless every input date precedes the target and the recent
    dates are :func:`intra_dates` of it; like that helper, it raises
    InsufficientHistory when they would fall before 0001-01-01.
    """

    target_date: dt.date
    tau: LeadTime
    inter_dates: tuple[dt.date, dt.date, dt.date]
    intra_dates: tuple[dt.date, dt.date, dt.date]
    inter_inputs: np.ndarray  # read-only (3, 4, h, w): [SF, T, V, C] of each input date
    intra_inputs: np.ndarray
    target: np.ndarray  # read-only (h, w): SF on the target date, a view of the stack

    def __post_init__(self):
        for d in self.inter_dates + self.intra_dates:
            if d >= self.target_date:
                raise FormatError(f"input date {d} does not precede target {self.target_date}")
        if list(self.intra_dates) != intra_dates(self.target_date, self.tau):
            raise FormatError("recent-group dates are not {t-3tau, t-2tau, t-tau}")

    @property
    def input_dates(self) -> tuple[dt.date, ...]:
        return self.inter_dates + self.intra_dates


def interannual_dates(t: dt.date, start: dt.date | None = None):
    """Same (month, day) in the three previous years, oldest first.

    Feb 29 targets map to Feb 28, since none of the three years before a
    leap year is one. A date before 0001-01-01, or before ``start`` when it
    is given, raises InsufficientHistory.
    """
    if t.year <= 3:
        raise InsufficientHistory(f"{t} - 3 years precedes {dt.date.min}")
    day = 28 if (t.month, t.day) == (2, 29) else t.day
    out = [t.replace(year=t.year - k, day=day) for k in (3, 2, 1)]
    if start is not None and out[0] < start:
        raise InsufficientHistory(f"{out[0]} precedes dataset start {start}")
    return out


def intra_dates(t: dt.date, tau: LeadTime, start: dt.date | None = None):
    """[t - 3*tau, t - 2*tau, t - tau]. A date before 0001-01-01, or before
    ``start`` when it is given, raises InsufficientHistory."""
    if (t - dt.date.min).days < 3 * tau.tau:
        raise InsufficientHistory(f"{t} - {3 * tau.tau} days precedes {dt.date.min}")
    out = [t - dt.timedelta(days=k * tau.tau) for k in (3, 2, 1)]
    if start is not None and out[0] < start:
        raise InsufficientHistory(f"{out[0]} precedes dataset start {start}")
    return out


def build_sample(stack: FieldStack, t: dt.date, tau: LeadTime) -> DualSample:
    """Assemble a DualSample from a 4-channel stack; the target is SF at t."""
    if stack.channels != 4:
        raise FormatError(f"sample construction needs a 4-channel stack, got {stack.channels}")
    inter = tuple(interannual_dates(t))
    intra = tuple(intra_dates(t, tau))
    needed = inter + intra + (t,)
    idx = [stack.index_of(d) for d in needed]
    missing = [d for d, i in zip(needed, idx) if i is None]
    if missing:
        raise MissingDate(missing)
    target = stack.values[idx[6], 0]
    inputs = stack.values[idx[:6]]
    _check_codes(inputs[:, 1], inputs[:, 3])
    inputs.setflags(write=False)
    return DualSample(t, tau, inter, intra, inputs[:3], inputs[3:], target)


def validate_split(sample: DualSample, split: SplitSpec, role: str) -> bool:
    """No-leakage check for a sample under the year-disjoint split.

    True when the target year belongs to the role's year set and every
    input date precedes the target (a DualSample cannot hold one that does
    not); training samples additionally need all input years inside the
    training set.
    """
    if role not in ("train", "test"):
        raise FormatError(f"role must be 'train' or 'test', got {role!r}")
    years = split.train_years if role == "train" else split.test_years
    if sample.target_date.year not in years:
        return False
    if role == "train" and any(d.year not in split.train_years for d in sample.input_dates):
        return False
    return True


def sample_lead_times(n: int, seed: int) -> list[LeadTime]:
    """n lead times drawn uniformly from the integers 30..90 (seeded)."""
    rng = np.random.default_rng(seed)
    return [LeadTime(int(tau)) for tau in rng.integers(TAU_MIN, TAU_MAX + 1, size=n)]


@dataclass(frozen=True)
class Climatology:
    """Per-(month, day) mean fields computed from training years only."""

    entries: dict

    def forecast(self, t: dt.date) -> ScalarField:
        key = (t.month, t.day)
        if key not in self.entries:
            raise MissingDayOfYear(f"no climatology entry for {t.month:02d}-{t.day:02d}")
        return self.entries[key]


def build_climatology(stack: FieldStack, split: SplitSpec) -> Climatology:
    """Pointwise day-of-year means of the SF channel over training-year fields.

    The Feb 29 entry averages only leap years. Test-year fields are never
    read.
    """
    sums: dict = {}
    counts: dict = {}
    any_train = False
    for i, d in enumerate(stack.dates):
        if d.year not in split.train_years:
            continue
        any_train = True
        key = (d.month, d.day)
        if key in sums:
            sums[key] = sums[key] + stack.values[i, 0]
            counts[key] += 1
        else:
            sums[key] = stack.values[i, 0].copy()
            counts[key] = 1
    if not any_train:
        raise EmptyTrainingSet("no training-year dates in the stack")
    return Climatology({key: ScalarField(sums[key] / counts[key]) for key in sums})


def climatology_forecast(clim: Climatology, t: dt.date) -> ScalarField:
    """The climatology entry for t's calendar day; independent of lead time."""
    return clim.forecast(t)


# ---------------------------------------------------------------------------
# Sample manifests: one line per sample, ISO-8601 dates
#   target_date,tau,inter0,inter1,inter2,intra0,intra1,intra2


def manifest_line(sample: DualSample) -> str:
    dates = [sample.target_date] + list(sample.input_dates)
    return ",".join([dates[0].isoformat(), str(sample.tau.tau)] + [d.isoformat() for d in dates[1:]])


def write_manifest(path, samples) -> None:
    Path(path).write_text("".join(manifest_line(s) + "\n" for s in samples))


def read_manifest(path) -> list[tuple[dt.date, LeadTime, tuple[dt.date, ...], tuple[dt.date, ...]]]:
    """Parse manifest lines into (target, tau, inter_dates, intra_dates)."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {path} is not text: {exc}") from None
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise FormatError(f"bad manifest line: {line!r}")
        try:
            target, tau = dt.date.fromisoformat(parts[0]), int(parts[1])
            dates = tuple(dt.date.fromisoformat(p) for p in parts[2:])
        except ValueError:
            raise FormatError(f"bad manifest line: {line!r}") from None
        out.append((target, LeadTime(tau), dates[:3], dates[3:]))
    return out
