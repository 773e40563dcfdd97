"""Spatially adaptive fusion arithmetic and fusion-weight regularizers.

The blend weight map lives in [0, 1]: 1 selects the calendar-aligned
branch, 0 the recent-dynamics branch. It is held at the finest
resolution only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GridTooSmall, ShapeMismatch
from .field import ScalarField, as_values
from .temporal import TAU_MAX, TAU_MIN, LeadTime


@dataclass(frozen=True)
class LambdaMap:
    """The finest-level blend-weight map, all values in [0, 1]."""

    level1: ScalarField

    def __post_init__(self):
        _check_weights(self.level1.values)

    @classmethod
    def of(cls, field_like) -> "LambdaMap":
        return cls(ScalarField(as_values(field_like)))


@dataclass(frozen=True)
class RegWeights:
    """Nonnegative weights for the smoothness/entropy/mean-balance terms."""

    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0
    lambda_target: float = 0.5

    def __post_init__(self):
        if not all(0 <= w < np.inf for w in (self.eta1, self.eta2, self.eta3)):
            raise FormatError("regularizer weights must be finite and nonnegative")
        if not 0.0 <= self.lambda_target <= 1.0:
            raise FormatError("lambda_target must lie in [0, 1]")


def _check_weights(lam: np.ndarray) -> None:
    if lam.size and (lam.min() < 0.0 or lam.max() > 1.0):
        raise FormatError("lambda values must lie in [0, 1]")


def blend(inter: np.ndarray, intra: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """lam*inter + (1 - lam)*intra over one grid or a stack of grids (..., h, w).

    The weights must lie in [0, 1]; they are checked before the shapes.
    """
    _check_weights(lam)
    grid = inter.shape[-2:]
    if intra.shape[-2:] != grid or lam.shape[-2:] != grid:
        raise ShapeMismatch(f"shapes {grid}, {intra.shape[-2:]}, {lam.shape[-2:]} differ")
    out = lam * inter
    out += (1.0 - lam) * intra
    return out


def add_residual(fused: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """fused + delta over one grid or a stack of grids (..., h, w)."""
    if fused.shape[-2:] != delta.shape[-2:]:
        raise ShapeMismatch(f"shapes {fused.shape[-2:]} and {delta.shape[-2:]} differ")
    return fused + delta


def fuse(inter: ScalarField, intra: ScalarField, lam: LambdaMap) -> ScalarField:
    """Pointwise convex blend: lam*inter + (1 - lam)*intra."""
    return ScalarField(blend(as_values(inter), as_values(intra), lam.level1.values))


def apply_residual(fused: ScalarField, delta: ScalarField) -> ScalarField:
    """Additive local correction; clamping is a reporting-time option."""
    return ScalarField(add_residual(as_values(fused), as_values(delta)))


def _reg_terms(maps: np.ndarray, lambda_target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel: TV, entropy and mean balance of each map in an (n, h, w) stack.

    It checks nothing; each view checks the domain of the term it returns
    (TV needs 2x2, entropy weights in [0, 1]). A row gives the same bits as
    the same map alone.
    """
    _, h, w = maps.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        d_col = np.abs(maps[:, :, 1:] - maps[:, :, :-1])
        d_row = np.abs(maps[:, 1:, :] - maps[:, :-1, :])
        tv_ = (d_col.sum(axis=(1, 2)) + d_row.sum(axis=(1, 2))) / (h * (w - 1) + (h - 1) * w)
        ent = -np.where(maps > 0.0, maps * np.log(maps), 0.0)
        ent -= np.where(maps < 1.0, (1.0 - maps) * np.log(1.0 - maps), 0.0)
    # float_power is C pow, as a scalar's ** 2 is; an array's ** 2 multiplies,
    # which differs in the last bit for about 0.1 % of values
    mb = np.float_power(maps.mean(axis=(1, 2)) - lambda_target, 2)
    return tv_, ent.mean(axis=(1, 2)), mb


def _regularizer(maps: np.ndarray, w: RegWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TV, entropy, mean balance and l_reg of each weight map in an (n, h, w) stack."""
    _check_weights(maps)
    tv_, ent, mb = _reg_terms(maps, w.lambda_target)
    return tv_, ent, mb, w.eta1 * tv_ - w.eta2 * ent + w.eta3 * mb


def tv(lam_level1) -> float:
    """Anisotropic total variation: pooled mean of forward differences."""
    vals = as_values(lam_level1)
    h, w = vals.shape
    if h < 2 or w < 2:
        raise GridTooSmall(f"total variation needs at least 2x2, got {h}x{w}")
    return float(_reg_terms(vals[None], 0.0)[0][0])


def entropy_term(lam_level1) -> float:
    """Mean binary entropy of the weights, natural log, 0*ln(0) = 0.

    Returned as the (nonnegative) entropy itself; the regularizer consumes
    its negation so that minimizing drives weights away from saturation.
    """
    vals = as_values(lam_level1)
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise FormatError("entropy is defined for weights in [0, 1]")
    return float(_reg_terms(vals[None], 0.0)[1][0])


def mean_balance(lam_level1, lambda_target: float) -> float:
    """(mean weight - target)^2."""
    return float(_reg_terms(as_values(lam_level1)[None], lambda_target)[2][0])


def l_reg(lam: LambdaMap, w: RegWeights) -> float:
    """Composite fusion-weight regularizer on the finest level.

    eta1*TV - eta2*entropy + eta3*(mean - target)^2; the entropy term is
    subtracted so that minimizing the total rewards non-saturated weights.
    """
    return float(_regularizer(lam.level1.values[None], w)[3][0])


def positional_encoding(height: int, width: int) -> np.ndarray:
    """Two rank-1 channels, shape (2, h, w): row index / (h-1), then column index / (w-1)."""
    if height < 2 or width < 2:
        raise GridTooSmall(f"positional encoding needs at least 2x2, got {height}x{width}")
    rows = np.arange(height, dtype=np.float64)[:, None] / (height - 1)
    cols = np.arange(width, dtype=np.float64)[None, :] / (width - 1)
    return np.stack(np.broadcast_arrays(rows, cols))


def lead_map(tau: LeadTime, height: int, width: int) -> np.ndarray:
    """The constant (h, w) conditioning map (tau - 30) / 60: lead time on [0, 1] over the 30..90-day window."""
    return np.full((height, width), (tau.tau - TAU_MIN) / (TAU_MAX - TAU_MIN))
