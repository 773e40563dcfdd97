import numpy as np
import pytest

from topofield import (
    GateSchedule,
    LossWeights,
    ScalarField,
    composite_loss,
    content_loss,
    hinge_d,
    hinge_g,
    loss_report,
    mae,
    ssim,
    topo_loss,
)
from topofield.errors import EmptyScores, FormatError, GridTooSmall, ShapeMismatch

# SSIM closed form for two constant fields a, b: variance terms vanish,
# leaving (2ab + C1) / (a^2 + b^2 + C1).
CONST_SSIM_02_04 = (2 * 0.2 * 0.4 + 1e-4) / (0.2**2 + 0.4**2 + 1e-4)


def const(v, shape=(12, 12)):
    return ScalarField(np.full(shape, float(v)))


def crater(shape=(12, 12), depth=0.9):
    vals = np.full(shape, 0.8)
    vals[4:8, 4:8] = 0.1
    vals[5:7, 5:7] = depth
    return ScalarField(vals)


class TestMae:
    def test_identical(self):
        f = const(0.3)
        assert mae(f, f) == 0.0

    def test_constant_offset(self):
        assert mae(const(0.3), const(0.4)) == pytest.approx(0.1, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = ScalarField(rng.uniform(0, 1, (12, 12)))
        b = ScalarField(rng.uniform(0, 1, (12, 12)))
        assert mae(a, b) == mae(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mae(const(0.1, (3, 3)), const(0.1, (3, 4)))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        f = ScalarField(rng.uniform(0, 1, (16, 16)))
        assert abs(ssim(f, f) - 1.0) < 1e-9

    def test_constant_closed_form(self):
        assert abs(ssim(const(0.2), const(0.4)) - CONST_SSIM_02_04) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = ScalarField(rng.uniform(0, 1, (14, 14)))
        b = ScalarField(rng.uniform(0, 1, (14, 14)))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = ScalarField(rng.uniform(0, 1, (12, 12)))
            b = ScalarField(rng.uniform(0, 1, (12, 12)))
            assert ssim(a, b) <= 1.0

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            ssim(const(0.5, (8, 8)), const(0.5, (8, 8)))


class TestContentLoss:
    def test_identical_is_zero(self):
        f = crater()
        assert content_loss(f, f) <= 1e-9

    def test_constant_example(self):
        got = content_loss(const(0.2), const(0.4))
        want = 0.2 + (1.0 - CONST_SSIM_02_04)
        assert got == pytest.approx(want, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        a = ScalarField(rng.uniform(0, 1, (12, 12)))
        b = ScalarField(rng.uniform(0, 1, (12, 12)))
        assert content_loss(a, b) >= 0.0


class TestHinge:
    def test_satisfied_margins(self):
        assert hinge_d(np.full(4, 1.0), np.full(4, -1.0)) == 0.0

    def test_zero_scores(self):
        assert hinge_d(np.zeros(3), np.zeros(3)) == 2.0

    def test_saturated(self):
        assert hinge_d(np.full(2, 2.0), np.full(2, -3.0)) == 0.0

    def test_generator_zero(self):
        assert hinge_g(np.zeros(5)) == 0.0

    def test_generator_negates_mean(self):
        assert hinge_g(np.full(5, 1.0)) == -1.0

    def test_generator_linear(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=10)
        assert hinge_g(3.0 * scores) == pytest.approx(3.0 * hinge_g(scores), abs=1e-12)

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            hinge_d([], [1.0])
        with pytest.raises(EmptyScores):
            hinge_g([])

    def test_hinge_d_zero_iff_margins_met(self):
        assert hinge_d([1.0, 1.5], [-1.0, -2.0]) == 0.0
        assert hinge_d([0.99], [-1.0]) > 0.0
        assert hinge_d([1.0], [-0.99]) > 0.0


class TestTopoLoss:
    def test_identical_fields(self):
        f = crater()
        assert topo_loss(f, f) == 0.0

    def test_uniform_shift_is_shift(self):
        f = crater()
        g = ScalarField(np.clip(f.values + 0.1, 0, 2))
        # no clipping actually occurs; diagram shift-equivariance gives 0.1
        assert not np.any(f.values + 0.1 > 2)
        assert topo_loss(f, g) == pytest.approx(0.1, abs=1e-9)

    def test_two_ramps_without_loops(self):
        a = ScalarField(np.tile(np.linspace(0, 1, 12), (12, 1)))
        b = ScalarField(np.tile(np.linspace(0, 1, 12), (12, 1)).T)
        assert topo_loss(a, b) == 0.0

    def test_stability_bound(self):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 1, (8, 8))
        noise = rng.uniform(-0.05, 0.05, (8, 8))
        assert topo_loss(f, f + noise) <= np.abs(noise).max() + 1e-9

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_grid_without_cells_is_too_small(self, shape):
        with pytest.raises(GridTooSmall, match=f"{shape[0]}x{shape[1]} grid"):
            topo_loss(np.zeros(shape), np.zeros(shape))


class TestCompositeGate:
    W = LossWeights(1.0, 1.0, 1.0, 1.0)
    G = GateSchedule(warmup_steps=10, every_n=5)

    def test_gate_closed_during_warmup(self):
        assert composite_loss(1, 1, 1, 1, self.W, 3, self.G) == 3.0

    def test_gate_open_on_schedule(self):
        assert composite_loss(1, 1, 1, 1, self.W, 15, self.G) == 4.0

    def test_gate_skips_between_activations(self):
        assert composite_loss(1, 1, 1, 1, self.W, 16, self.G) == 3.0

    def test_linear_in_components(self):
        total = composite_loss(2.0, 3.0, 4.0, 5.0, LossWeights(0.5, 0.25, 2.0, 1.0), 15, self.G)
        assert total == pytest.approx(0.5 * 2 + 0.25 * 3 + 2.0 * 4 + 1.0 * 5, abs=1e-12)

    def test_gate_contributes_exactly_zero_when_closed(self):
        open_total = composite_loss(0, 0, 0, 7.3, self.W, 15, self.G)
        closed_total = composite_loss(0, 0, 0, 7.3, self.W, 14, self.G)
        assert open_total == 7.3
        assert closed_total == 0.0

    def test_invalid_schedule(self):
        with pytest.raises(FormatError):
            GateSchedule(every_n=0)
        with pytest.raises(FormatError):
            GateSchedule(warmup_steps=-1)

    def test_negative_step_rejected(self):
        with pytest.raises(FormatError, match="step must be nonnegative"):
            GateSchedule().open_at(-1)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_invalid_weights(self, bad, slot):
        weights = [1.0, 1.0, 1.0, 1.0]
        weights[slot] = bad
        with pytest.raises(FormatError):
            LossWeights(*weights)

    def test_report_includes_gate_state(self):
        rep = loss_report(1.0, 0.5, 0.2, 0.7, self.W, 15, self.G)
        assert rep["topo_gate_open"] is True
        assert rep["total"] == pytest.approx(1.0 + 0.5 + 0.2 + 0.7)
        rep = loss_report(1.0, 0.5, 0.2, 0.7, self.W, 16, self.G)
        assert rep["topo_gate_open"] is False
        assert rep["total"] == pytest.approx(1.7)
