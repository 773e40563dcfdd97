"""Training-loss kernels as pure functions, plus the composite gating.

Everything here evaluates on arrays that arrive as data: predicted fields,
target fields, and opaque discriminator score vectors. Field losses operate
in normalized [0, 1] space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyScores, FormatError
from .metrics import _pair, ssim
from .persistence import bottleneck_distance, sublevel_persistence


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not all(0 <= w < np.inf for w in (self.alpha, self.beta, self.gamma, self.delta)):
            raise FormatError("loss weights must be finite and nonnegative")


@dataclass(frozen=True)
class GateSchedule:
    """Warm-up then intermittent activation of the topological term."""

    warmup_steps: int = 0
    every_n: int = 5

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise FormatError("warmup_steps must be nonnegative")
        if self.every_n < 1:
            raise FormatError("every_n must be at least 1")

    def open_at(self, step: int) -> bool:
        if step < 0:
            raise FormatError("step must be nonnegative")
        return step >= self.warmup_steps and step % self.every_n == 0


def mae(a, b) -> float:
    av, bv = _pair(a, b)
    return float(np.abs(av - bv).mean())


def content_loss(pred, truth) -> float:
    """Pointwise plus structural fidelity: MAE + (1 - SSIM)."""
    return mae(pred, truth) + (1.0 - ssim(pred, truth))


def _scores(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyScores("score array is empty")
    if not np.all(np.isfinite(arr)):
        raise FormatError("score array contains non-finite values")
    return arr


def hinge_d(real_scores, fake_scores) -> float:
    """Discriminator hinge loss: E[max(0, 1-real)] + E[max(0, 1+fake)]."""
    real = _scores(real_scores)
    fake = _scores(fake_scores)
    return float(np.maximum(0.0, 1.0 - real).mean() + np.maximum(0.0, 1.0 + fake).mean())


def hinge_g(fake_scores) -> float:
    """Generator adversarial loss: -E[fake]."""
    return float(-_scores(fake_scores).mean())


def topo_loss(truth, pred) -> float:
    """Bottleneck distance between the loop-structure diagrams of the fields."""
    tv_, pv_ = _pair(truth, pred)
    pd_truth = sublevel_persistence(tv_, 1)
    pd_pred = sublevel_persistence(pv_, 1)
    return bottleneck_distance(pd_truth, pd_pred)


def composite_loss(
    content: float,
    adv: float,
    reg: float,
    topo: float,
    w: LossWeights,
    step: int,
    g: GateSchedule,
) -> float:
    """Weighted total with the topological term gated by warm-up/intermittency.

    On gated-off steps the topological contribution is exactly zero, not a
    cached value.
    """
    topo_effective = topo if g.open_at(step) else 0.0
    return w.alpha * content + w.beta * adv + w.gamma * reg + w.delta * topo_effective


def loss_report(
    content: float,
    adv: float,
    reg: float,
    topo: float,
    w: LossWeights,
    step: int,
    g: GateSchedule,
) -> dict:
    """Machine-readable loss bundle including the gate state."""
    gate_open = g.open_at(step)
    return {
        "content": content,
        "adv": adv,
        "reg": reg,
        "topo": topo,
        "topo_gate_open": gate_open,
        "step": step,
        "total": composite_loss(content, adv, reg, topo, w, step, g),
    }
