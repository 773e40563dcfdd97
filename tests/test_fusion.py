import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from topofield import (
    LambdaMap,
    LeadTime,
    RegWeights,
    ScalarField,
    apply_residual,
    entropy_term,
    fuse,
    l_reg,
    lead_map,
    mean_balance,
    positional_encoding,
    tv,
)
from topofield.errors import FormatError, GridTooSmall, ShapeMismatch


def const(v, shape=(3, 4)):
    return ScalarField(np.full(shape, float(v)))


def lam_of(v, shape=(3, 4)):
    return LambdaMap.of(np.full(shape, float(v)))


unit_grids = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
)


class TestFuse:
    def test_lambda_one_returns_inter_exactly(self):
        rng = np.random.default_rng(0)
        a = ScalarField(rng.uniform(0, 1, (5, 5)))
        b = ScalarField(rng.uniform(0, 1, (5, 5)))
        out = fuse(a, b, lam_of(1.0, (5, 5)))
        assert np.array_equal(out.values, a.values)

    def test_lambda_zero_returns_intra_exactly(self):
        rng = np.random.default_rng(1)
        a = ScalarField(rng.uniform(0, 1, (5, 5)))
        b = ScalarField(rng.uniform(0, 1, (5, 5)))
        out = fuse(a, b, lam_of(0.0, (5, 5)))
        assert np.array_equal(out.values, b.values)

    def test_halfway_blend(self):
        out = fuse(const(0.2), const(0.4), lam_of(0.5))
        assert np.allclose(out.values, 0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse(const(0.2, (3, 4)), const(0.4, (4, 3)), lam_of(0.5, (3, 4)))

    def test_identical_inputs_fixed_point(self):
        rng = np.random.default_rng(2)
        a = ScalarField(rng.uniform(0, 1, (4, 4)))
        lam = LambdaMap.of(rng.uniform(0, 1, (4, 4)))
        assert np.array_equal(fuse(a, a, lam).values, a.values)

    @given(unit_grids)
    @settings(max_examples=40, deadline=None)
    def test_convex_combination_bound(self, lam_vals):
        rng = np.random.default_rng(3)
        shape = lam_vals.shape
        a = rng.uniform(0, 1, shape)
        b = rng.uniform(0, 1, shape)
        out = fuse(ScalarField(a), ScalarField(b), LambdaMap.of(lam_vals)).values
        assert np.all(out >= np.minimum(a, b) - 1e-15)
        assert np.all(out <= np.maximum(a, b) + 1e-15)


class TestResidual:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(4)
        f = ScalarField(rng.uniform(0, 1, (3, 3)))
        assert np.array_equal(apply_residual(f, const(0.0, (3, 3))).values, f.values)

    def test_constant_shift(self):
        out = apply_residual(const(0.3), const(0.05))
        assert np.allclose(out.values, 0.35)

    def test_mean_linearity(self):
        rng = np.random.default_rng(5)
        f = ScalarField(rng.uniform(0, 1, (4, 4)))
        delta = ScalarField(rng.uniform(-0.1, 0.1, (4, 4)))
        out = apply_residual(f, delta)
        assert out.values.mean() == pytest.approx(f.values.mean() + delta.values.mean(), abs=1e-12)

    def test_no_clamping(self):
        out = apply_residual(const(0.9), const(0.9))
        assert np.all(out.values == pytest.approx(1.8))


class TestRegularizers:
    def test_tv_constant_is_zero(self):
        assert tv(const(0.7)) == 0.0

    def test_tv_2x2_hand_enumeration(self):
        assert tv(np.array([[0.0, 1.0], [0.0, 1.0]])) == 0.5

    def test_tv_checkerboard_is_one(self):
        cb = (np.indices((6, 7)).sum(axis=0) % 2).astype(float)
        assert tv(cb) == 1.0

    def test_tv_invariant_under_complement(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(0, 1, (5, 5))
        assert tv(lam) == pytest.approx(tv(1.0 - lam), abs=1e-15)

    def test_tv_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            tv(np.zeros((1, 5)))

    def test_entropy_at_half_is_ln2(self):
        assert abs(entropy_term(const(0.5)) - math.log(2.0)) < 1e-12

    def test_entropy_saturated_is_zero(self):
        assert entropy_term(const(0.0)) == 0.0
        assert entropy_term(const(1.0)) == 0.0

    def test_entropy_mixed_pixels(self):
        lam = np.zeros((2, 2))
        lam[0, :] = 0.5
        assert entropy_term(lam) == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_entropy_complement_invariance(self):
        rng = np.random.default_rng(7)
        lam = rng.uniform(0, 1, (4, 4))
        assert entropy_term(lam) == pytest.approx(entropy_term(1.0 - lam), abs=1e-12)

    def test_entropy_maximized_at_half(self):
        rng = np.random.default_rng(8)
        lam = rng.uniform(0, 1, (4, 4))
        assert entropy_term(lam) <= entropy_term(const(0.5, (4, 4))) + 1e-12

    def test_mean_balance(self):
        assert mean_balance(const(0.5), 0.5) == 0.0
        assert mean_balance(const(0.7), 0.5) == pytest.approx(0.04, abs=1e-12)

    def test_mean_balance_permutation_invariant(self):
        rng = np.random.default_rng(9)
        lam = rng.uniform(0, 1, (4, 4))
        perm = rng.permutation(lam.ravel()).reshape(4, 4)
        assert mean_balance(lam, 0.3) == pytest.approx(mean_balance(perm, 0.3), abs=1e-15)


class TestLReg:
    def test_constant_half_decomposition(self):
        w = RegWeights(eta1=2.0, eta2=3.0, eta3=4.0, lambda_target=0.25)
        got = l_reg(lam_of(0.5), w)
        want = 3.0 * (-math.log(2.0)) + 4.0 * (0.5 - 0.25) ** 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_weights_zero_loss(self):
        assert l_reg(lam_of(0.37), RegWeights()) == 0.0

    def test_tv_only_checkerboard(self):
        cb = (np.indices((6, 6)).sum(axis=0) % 2).astype(float)
        assert l_reg(LambdaMap.of(cb), RegWeights(eta1=1.0)) == 1.0

    def test_target_match_with_tv_only_is_zero(self):
        w = RegWeights(eta1=1.0, lambda_target=0.4)
        assert l_reg(lam_of(0.4), w) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(FormatError):
            RegWeights(eta1=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_weights_rejected(self, bad, slot):
        weights = [1.0, 1.0, 1.0]
        weights[slot] = bad
        with pytest.raises(FormatError):
            RegWeights(*weights)


class TestPositionalEncoding:
    def test_corners(self):
        lat, lon = positional_encoding(5, 7)
        assert lat[0, 0] == 0.0
        assert lon[0, 0] == 0.0
        assert lat[4, 6] == 1.0
        assert lon[4, 6] == 1.0

    def test_midpoint_row(self):
        pe = positional_encoding(5, 4)
        assert pe.shape == (2, 5, 4)
        assert np.all(pe[0, 2] == 0.5)

    def test_rank_one_structure(self):
        lat, lon = positional_encoding(6, 8)
        assert np.linalg.matrix_rank(lat) == 1
        assert np.linalg.matrix_rank(lon) == 1

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            positional_encoding(1, 5)


class TestLeadMap:
    @pytest.mark.parametrize("tau,value", [(30, 0.0), (60, 0.5), (90, 1.0)])
    def test_window_normalization(self, tau, value):
        lm = lead_map(LeadTime(tau), 3, 4)
        assert lm.shape == (3, 4)
        assert np.all(lm == value)

    def test_field_is_constant(self):
        lm = lead_map(LeadTime(47), 4, 4)
        assert lm.max() == lm.min()


class TestLambdaMap:
    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            LambdaMap.of(np.full((2, 2), 1.5))


def one_map_terms(vals, target):
    """The one-map formulas of TV, entropy and mean balance, in plain numpy scalars."""
    d_col = np.abs(vals[:, 1:] - vals[:, :-1])
    d_row = np.abs(vals[1:, :] - vals[:-1, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(vals > 0.0, vals * np.log(vals), 0.0)
        h -= np.where(vals < 1.0, (1.0 - vals) * np.log(1.0 - vals), 0.0)
    return (float((d_col.sum() + d_row.sum()) / (d_col.size + d_row.size)), float(h.mean()),
            float((vals.mean() - target) ** 2))


def test_regularizer_views_equal_the_one_map_formulas_bit_for_bit():
    rng = np.random.default_rng(10)
    shapes = [(2, 2), (101, 237)] + [tuple(rng.integers(2, 12, 2)) for _ in range(1500)]
    for k, shape in enumerate(shapes):
        vals = rng.uniform(0.0, 1.0, shape)
        if k % 3 == 1:
            vals = rng.choice([0.0, 0.5, 1.0], shape)  # saturated weights
        elif k % 3 == 2:
            vals = vals.astype(np.float32).astype(np.float64)  # as a GFS file stores them
        w = RegWeights(*rng.uniform(0.0, 3.0, 3), float(rng.uniform(0.0, 1.0)))
        t, e, m = one_map_terms(vals, w.lambda_target)
        assert (tv(vals), entropy_term(vals), mean_balance(vals, w.lambda_target)) == (t, e, m), shape
        assert l_reg(LambdaMap.of(vals), w) == w.eta1 * t - w.eta2 * e + w.eta3 * m, shape
